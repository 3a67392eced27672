"""Shard persistence: one checkpoint segment per shard, no refitting.

Learned indexes are expensive to *build* (model fits + one correction
layer pass per shard) and cheap to *use*, so a deployment wants to build
once, ship the artifact, and ``repro.open()`` it at serving time — the
same story Google's Bigtable-backed learned index and the RMI tell, made
concrete for this engine.

A segment is one shard in the package's one checksummed container
(:func:`repro.core.serialize.write_archive`):

* a JSON **entry** — backend kind, lineage, tuner decision label,
  workload counters, the shard's
  :class:`~repro.engine.backends.BackendConfig`, model/layer scalar
  state;
* numpy **arrays** — key storage (``static``: the key slice;
  ``gapped``: gapped slots + occupancy bitmap; ``fenwick``: base keys +
  pending insert/tombstone buffers + the Fenwick drift tree) and
  model/layer parameter arrays via the :mod:`repro.core.serialize`
  state codecs.

The directory that strings segments into a saved index —
``MANIFEST.json`` + ``segments/`` (+ ``wal/``) — is
:mod:`repro.engine.durability`'s.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.corrected_index import CorrectedIndex
from ..core.fenwick import FenwickTree, UpdatableCorrectedIndex
from ..core.gapped import GappedLearnedIndex
from ..core.records import SortedData
from ..core.serialize import (
    FORMAT_VERSION,
    IndexPersistError,
    layer_from_state,
    layer_to_state,
    model_from_state,
    model_to_state,
    read_archive,
    write_archive,
)
from ..hardware.machine import DEFAULT_PAYLOAD_BYTES
from .backends import (
    BackendConfig,
    FenwickBackend,
    GappedBackend,
    ShardBackend,
    ShardStats,
    StaticBackend,
)

#: Manifest magic marking a file as a single-shard checkpoint segment.
SEGMENT_FORMAT_NAME = "repro-shard-segment"


def _config_to_dict(config: BackendConfig) -> dict:
    if not isinstance(config.model, str):
        raise IndexPersistError(
            "cannot persist a custom model factory "
            f"({config.model!r}); use a named model family"
        )
    return {
        "model": config.model,
        "layer": config.layer,
        "layer_partitions": config.layer_partitions,
        "payload_bytes": config.payload_bytes,
        "density": config.density,
        "merge_threshold": config.merge_threshold,
    }


def _config_from_dict(payload: dict) -> BackendConfig:
    return BackendConfig(
        model=payload["model"],
        layer=payload["layer"],
        layer_partitions=payload["layer_partitions"],
        payload_bytes=int(payload["payload_bytes"]),
        density=float(payload["density"]),
        merge_threshold=int(payload["merge_threshold"]),
    )


# ----------------------------------------------------------------------
# per-shard encode
# ----------------------------------------------------------------------
def _encode_shard(shard: ShardBackend) -> tuple[dict, dict]:
    """One shard backend -> (manifest entry, arrays dict)."""
    index = shard.index
    model_scalars, model_arrays = model_to_state(index.model)
    layer_scalars, layer_arrays = layer_to_state(index.layer)
    entry = {
        "kind": shard.kind,
        "name": index.name,
        "data_name": index.data.name,
        "origin": shard.origin,
        "decision_label": shard.decision_label,
        "split_failed_at": shard.split_failed_at,
        "stats": {"reads": shard.stats.reads, "writes": shard.stats.writes},
        "config": _config_to_dict(shard.config),
        "model": model_scalars,
        "layer": layer_scalars,
    }
    arrays: dict[str, np.ndarray] = {}
    for key, value in model_arrays.items():
        arrays[f"model_{key}"] = value
    for key, value in layer_arrays.items():
        arrays[f"layer_{key}"] = value

    if isinstance(shard, StaticBackend):
        arrays["keys"] = index.data.keys
    elif isinstance(shard, GappedBackend):
        g = shard._g
        entry["gapped"] = {
            "num_keys": g.num_keys,
            "density": g.density,
            "inserts_since": g._inserts_since,
            "name": g.name,
        }
        arrays["gapped"] = g.data.keys
        arrays["occupied"] = g._occupied
    elif isinstance(shard, FenwickBackend):
        u = shard._u
        entry["fenwick"] = {
            "merge_threshold": u.merge_threshold,
            "name": u.base.name,
        }
        arrays["keys"] = u.base.data.keys
        arrays["buffer"] = u._buffer_sorted()
        arrays["deleted"] = u._deleted_sorted()
        arrays["fenwick_tree"] = u._drift._tree
    else:
        raise IndexPersistError(
            f"no persistence codec for shard backend {type(shard).__name__}"
        )
    return entry, arrays


# ----------------------------------------------------------------------
# per-shard decode
# ----------------------------------------------------------------------
def _decode_corrected_index(
    entry: dict, arrays: dict, keys: np.ndarray, payload_bytes: int
) -> CorrectedIndex:
    """Rebuild a shard's CorrectedIndex view from codec state."""
    model = model_from_state(
        entry["model"],
        {k[len("model_"):]: v for k, v in arrays.items()
         if k.startswith("model_")},
    )
    layer = layer_from_state(
        entry["layer"],
        {k[len("layer_"):]: v for k, v in arrays.items()
         if k.startswith("layer_")},
    )
    data = SortedData(
        keys, payload_bytes=payload_bytes, name=entry["data_name"]
    )
    return CorrectedIndex(data, model, layer, name=entry["name"])


def _decode_shard(entry: dict, arrays: dict) -> ShardBackend:
    """One manifest entry + arrays -> a live shard backend (no refit)."""
    config = _config_from_dict(entry["config"])
    kind = entry["kind"]
    if kind == "static":
        index = _decode_corrected_index(
            entry, arrays, arrays["keys"], config.payload_bytes
        )
        shard: ShardBackend = StaticBackend(index, config)
    elif kind == "gapped":
        meta = entry["gapped"]
        # the gapped wrapper's SortedData uses the default payload
        # stride (mirror _rebuild()); graft the restored pieces in
        # without the forward-fill construction pass
        index = _decode_corrected_index(
            entry, arrays, arrays["gapped"], DEFAULT_PAYLOAD_BYTES
        )
        g = GappedLearnedIndex.__new__(GappedLearnedIndex)
        g.density = float(meta["density"])
        g.name = meta["name"]
        g.model_kind = config.model
        g._occupied = arrays["occupied"].astype(bool)
        g.num_keys = int(meta["num_keys"])
        g.data = index.data
        g.model = index.model
        g.layer = index.layer
        g._index = index
        g._index.validate = True
        g._inserts_since = int(meta["inserts_since"])
        g._prefix_cache = None
        shard = GappedBackend.__new__(GappedBackend)
        shard.config = config
        shard._g = g
    elif kind == "fenwick":
        meta = entry["fenwick"]
        base = _decode_corrected_index(
            entry, arrays, arrays["keys"], config.payload_bytes
        )
        u = UpdatableCorrectedIndex(
            base, merge_threshold=int(meta["merge_threshold"])
        )
        u._buffer = list(arrays["buffer"])
        u._deleted = list(arrays["deleted"])
        u._buffer_arr = arrays["buffer"]
        u._deleted_arr = arrays["deleted"]
        tree = FenwickTree(len(base.data) + 1)
        tree._tree[:] = arrays["fenwick_tree"]
        u._drift = tree
        shard = FenwickBackend.__new__(FenwickBackend)
        shard.config = config
        shard._u = u
    else:
        raise IndexPersistError(f"unknown shard backend kind {kind!r}")
    shard.origin = entry["origin"]
    shard.decision_label = entry["decision_label"]
    shard.split_failed_at = int(entry["split_failed_at"])
    shard._stats = ShardStats(
        reads=int(entry["stats"]["reads"]),
        writes=int(entry["stats"]["writes"]),
    )
    return shard


# ----------------------------------------------------------------------
# per-shard checkpoint segments (the incremental-persistence unit)
# ----------------------------------------------------------------------
def encode_shard_state(
    shard: ShardBackend | None,
) -> tuple[dict | None, dict[str, np.ndarray]]:
    """Snapshot one shard into ``(manifest entry, owned array copies)``.

    The under-the-lock half of an incremental checkpoint:
    :func:`_encode_shard` returns *live views* into the shard's storage,
    so this copies every array while the caller holds the engine write
    lock — after it returns, the snapshot is immune to concurrent
    writers and :func:`save_shard_segment` can run with no lock held.
    An empty (``None``) shard snapshots to ``(None, {})``.
    """
    if shard is None:
        return None, {}
    try:
        entry, arrays = _encode_shard(shard)
    except TypeError as exc:
        raise IndexPersistError(
            f"shard is not serialisable: {exc}"
        ) from exc
    return entry, {k: np.array(v, copy=True) for k, v in arrays.items()}


def save_shard_segment(
    path: str | Path,
    entry: dict | None,
    arrays: dict[str, np.ndarray],
    *,
    shard_id: int,
    generation: int,
    flushed_lsn: int,
    length: int,
) -> dict:
    """Write one shard snapshot as a standalone, checksummed ``.npz``.

    The unit of a checkpoint (:mod:`repro.engine.durability`): a pass
    snapshots one shard at a time (:func:`encode_shard_state`, under
    the engine lock) and writes it here **outside** the lock —
    ``flushed_lsn`` records the WAL position the shard's state already
    contains, so recovery replays only the records past it (0 in a
    WAL-less snapshot).  An empty (``None``) entry writes a segment
    with no arrays, keeping the manifest's shard list positional.
    Returns the segment manifest.
    """
    return write_archive(path, SEGMENT_FORMAT_NAME, {
        "shard_id": int(shard_id),
        "generation": int(generation),
        "flushed_lsn": int(flushed_lsn),
        "length": int(length),
        "entry": entry,
    }, arrays)


def load_shard_segment(
    path: str | Path,
) -> tuple[dict, ShardBackend | None]:
    """Read a segment written by :func:`save_shard_segment`.

    Returns ``(segment manifest, live shard backend or None)`` after
    checksum verification; raises :class:`IndexPersistError` for
    corrupted, truncated or non-segment files.
    """
    manifest, arrays = read_archive(path, SEGMENT_FORMAT_NAME)
    entry = manifest.get("entry")
    if entry is None:
        return manifest, None
    return manifest, _decode_shard(entry, arrays)


__all__ = [
    "FORMAT_VERSION",
    "SEGMENT_FORMAT_NAME",
    "IndexPersistError",
    "encode_shard_state",
    "load_shard_segment",
    "save_shard_segment",
]
