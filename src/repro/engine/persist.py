"""Whole-engine persistence: save a built :class:`ShardedIndex`, reopen
it in another process without refitting anything.

The missing production primitive behind the ``repro.Index`` facade:
learned indexes are expensive to *build* (model fits + one correction
layer pass per shard) and cheap to *use*, so a deployment wants to build
once, ship the artifact, and ``repro.open()`` it at serving time — the
same story Google's Bigtable-backed learned index and the RMI tell, made
concrete for this engine.

One ``.npz`` file holds the entire engine:

* a JSON **manifest** — format version, key dtype, shard offsets
  metadata, the engine-level :class:`~repro.engine.backends.BackendConfig`,
  the standing auto-tune configuration, per-shard entries (backend kind,
  lineage, tuner decision label, workload counters, model/layer scalar
  state), and an optional facade-level ``IndexConfig`` dict;
* numpy **arrays** — global shard offsets plus per-shard key storage
  (``static``: the key slice; ``gapped``: gapped slots + occupancy
  bitmap; ``fenwick``: base keys + pending insert/tombstone buffers +
  the Fenwick drift tree) and model/layer parameter arrays via the
  :mod:`repro.core.serialize` state codecs;
* a **checksum** — SHA-256 over the manifest and every array's bytes,
  verified on load so a corrupted or truncated file is rejected with a
  clear error instead of answering queries wrongly.

The archive is written with ``np.savez`` (uncompressed): load speed is
the whole point of persistence — reopening must beat rebuilding by an
order of magnitude — and key arrays compress poorly anyway.  Loading
never executes code (``allow_pickle=False``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from ..core.corrected_index import CorrectedIndex
from ..core.fenwick import FenwickTree, UpdatableCorrectedIndex
from ..core.gapped import GappedLearnedIndex
from ..core.records import SortedData
from ..core.serialize import (
    layer_from_state,
    layer_to_state,
    model_from_state,
    model_to_state,
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
from .sharded import ShardedIndex
from .wal import _fsync_dir

#: On-disk engine format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: Manifest magic marking a file as a whole-engine archive.
FORMAT_NAME = "repro-sharded-index"

#: Manifest magic marking a file as a single-shard checkpoint segment
#: (the incremental-checkpoint unit — see :mod:`repro.engine.durability`).
SEGMENT_FORMAT_NAME = "repro-shard-segment"


class IndexPersistError(ValueError):
    """A saved index could not be written or read back.

    Raised with a human-readable reason: not an index archive, an
    unsupported format version, a checksum mismatch (corruption), or
    state the codec cannot encode (custom model callables).
    """


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
# durable file plumbing
# ----------------------------------------------------------------------
def _atomic_savez(path: Path, payload: dict) -> None:
    """Write an ``.npz`` so a crash never publishes a partial file.

    The archive goes to a ``mkstemp`` temp file in the target directory
    — *unique per writer*, so two processes saving to the same path
    cannot interleave bytes into one shared ``.tmp`` and publish a
    corrupt archive; last ``os.replace`` wins with both results intact.
    The temp file is flushed and ``fsync``\\ ed before the rename and the
    parent directory is fsynced after it: without both, a power loss
    shortly after "saving" can leave the *old* name pointing at the new
    (unwritten) bytes — an atomic rename is only crash-durable once the
    data below it is.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


# ----------------------------------------------------------------------
# checksum
# ----------------------------------------------------------------------
def _checksum(manifest_json: str, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over the manifest and every array's dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(manifest_json.encode("utf-8"))
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.data)  # no tobytes() copy: hash in place
    return digest.hexdigest()


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def save_index(
    index: ShardedIndex,
    path: str | Path,
    *,
    index_config: dict | None = None,
) -> dict:
    """Serialise a whole :class:`ShardedIndex` to ``path`` (.npz).

    Everything needed to answer queries bit-identically is written:
    shard offsets, per-shard model + correction-layer parameters (via
    the :mod:`repro.core.serialize` state codecs), backend storage
    including pending deltas/tombstones, tuner decisions and workload
    counters, plus a format version and a SHA-256 checksum.

    ``index_config`` is an optional facade-level config dict
    (``IndexConfig.to_dict()``) stored verbatim for ``repro.open`` to
    restore.  Returns the manifest that was written.  Raises
    :class:`IndexPersistError` for state the codecs cannot encode
    (custom model callables) or an empty index.
    """
    if len(index) == 0:
        raise IndexPersistError("cannot save an empty index (no keys)")
    with index._write_lock:
        arrays: dict[str, np.ndarray] = {"offsets": index.offsets}
        shard_entries: list[dict | None] = []
        for s, shard in enumerate(index.shards):
            if shard is None:
                shard_entries.append(None)
                continue
            try:
                entry, shard_arrays = _encode_shard(shard)
            except TypeError as exc:
                raise IndexPersistError(
                    f"shard {s} is not serialisable: {exc}"
                ) from exc
            shard_entries.append(entry)
            for key, value in shard_arrays.items():
                arrays[f"s{s}_{key}"] = value
        tuner = index.tuner
        manifest = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "key_dtype": index.key_dtype.str,
            "name": index.name,
            "num_shards": index.num_shards,
            "num_keys": len(index),
            "backend": index.backend_kind,
            "target_shard_keys": index._target_shard_keys,
            "num_splits": index.num_splits,
            "num_merges": index.num_merges,
            "config": _config_to_dict(index.config),
            "auto_tune": (
                tuner.config.to_dict() if tuner is not None else None
            ),
            "index_config": index_config,
            "shards": shard_entries,
        }
        # the collected arrays are LIVE views into the engine (offsets,
        # gapped slots, occupancy bitmaps); checksum and write must
        # happen under the write lock too, or a concurrent writer tears
        # the snapshot into post-write arrays under pre-write scalars —
        # with a checksum computed from the torn state, so it would
        # still validate on load
        manifest_json = json.dumps(manifest, sort_keys=True)
        payload = {
            "manifest": np.asarray(manifest_json),
            "checksum": np.asarray(_checksum(manifest_json, arrays)),
        }
        payload.update(arrays)
        # atomic replace + fsync contract: a save killed mid-write (OOM,
        # disk-full, SIGKILL) must not destroy the previous good
        # artifact, and a save that *returned* must survive power loss
        _atomic_savez(Path(path), payload)
    return manifest


def read_manifest(path: str | Path) -> dict:
    """Read and validate just the manifest of a saved index.

    Cheap relative to :func:`load_index` (no shard reconstruction), but
    still verifies the checksum over the full archive.  Raises
    :class:`IndexPersistError` on anything that is not a healthy saved
    index.
    """
    manifest, _ = _read_verified(path)
    return manifest


def _read_verified(path: str | Path, expected_format: str = FORMAT_NAME):
    # the ``with`` wraps the np.load call itself (the idiom
    # ``core/serialize.load_layer`` uses): the archive's zip handle —
    # and the file descriptor under it — is closed on every exit path,
    # including the error raises below, instead of leaking until the
    # garbage collector gets around to it
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            files = set(archive.files)
            if "manifest" not in files or "checksum" not in files:
                raise IndexPersistError(
                    f"{path} is not a saved index "
                    "(missing manifest/checksum)"
                )
            manifest_json = str(archive["manifest"])
            try:
                manifest = json.loads(manifest_json)
            except json.JSONDecodeError as exc:
                raise IndexPersistError(
                    f"{path} has an unreadable manifest: {exc}"
                ) from exc
            if manifest.get("format") != expected_format:
                raise IndexPersistError(
                    f"{path} is not a saved index "
                    f"(format={manifest.get('format')!r}, "
                    f"expected {expected_format!r})"
                )
            version = int(manifest.get("format_version", -1))
            if version > FORMAT_VERSION or version < 1:
                raise IndexPersistError(
                    f"{path} uses engine format version {version}; this "
                    f"library reads versions 1..{FORMAT_VERSION} — "
                    "upgrade the library or re-save the index"
                )
            arrays = {
                name: archive[name]
                for name in archive.files
                if name not in ("manifest", "checksum")
            }
            expected = str(archive["checksum"])
    except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
        if isinstance(exc, IndexPersistError):
            raise
        raise IndexPersistError(
            f"{path} is not a readable saved index: {exc}"
        ) from exc
    actual = _checksum(manifest_json, arrays)
    if actual != expected:
        raise IndexPersistError(
            f"{path} failed its checksum (expected {expected[:12]}…, "
            f"got {actual[:12]}…) — the file is corrupted or was "
            "modified after saving"
        )
    return manifest, arrays


def load_index(path: str | Path) -> tuple[ShardedIndex, dict]:
    """Reopen a saved index: ``(ShardedIndex, manifest)``, no refitting.

    The returned engine is bit-identical to the one that was saved —
    same shard offsets, model parameters, correction layers, pending
    update buffers, tuner decisions and workload counters — and its
    ``build_info()['source']`` reads ``"loaded"``.  Raises
    :class:`IndexPersistError` for corrupted, truncated, version-
    incompatible or non-index files.
    """
    manifest, arrays = _read_verified(path)
    shards: list[ShardBackend | None] = []
    for s, entry in enumerate(manifest["shards"]):
        if entry is None:
            shards.append(None)
            continue
        prefix = f"s{s}_"
        shard_arrays = {
            name[len(prefix):]: value
            for name, value in arrays.items()
            if name.startswith(prefix)
        }
        shards.append(_decode_shard(entry, shard_arrays))
    offsets = arrays["offsets"]
    live = [shard.keys() for shard in shards if shard is not None]
    keys = (
        np.concatenate(live) if live
        else np.empty(0, dtype=np.dtype(manifest["key_dtype"]))
    )
    tuner_config = manifest.get("auto_tune")
    auto_tune = False
    if tuner_config is not None:
        from .autotune import AutoTuneConfig

        auto_tune = AutoTuneConfig.from_dict(tuner_config)
    index = ShardedIndex(
        shards, offsets, keys,
        name=manifest["name"],
        config=_config_from_dict(manifest["config"]),
        backend=manifest["backend"],
        auto_tune=auto_tune,
    )
    index._target_shard_keys = int(manifest["target_shard_keys"])
    index.num_splits = int(manifest["num_splits"])
    index.num_merges = int(manifest["num_merges"])
    index.source = "loaded"
    return index, manifest


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

    The unit of an *incremental* checkpoint
    (:mod:`repro.engine.durability`): where :func:`save_index` holds the
    engine write lock across the whole archive, a checkpoint pass
    snapshots one shard at a time (:func:`encode_shard_state`, under the
    lock) and writes it here **outside** the lock — ``flushed_lsn``
    records the WAL position the shard's state already contains, so
    recovery replays only the records past it.  An empty (``None``)
    entry writes a segment with no arrays, keeping the manifest's shard
    list positional.  Same fsync + atomic-replace contract as
    :func:`save_index`.  Returns the segment manifest.
    """
    manifest = {
        "format": SEGMENT_FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "shard_id": int(shard_id),
        "generation": int(generation),
        "flushed_lsn": int(flushed_lsn),
        "length": int(length),
        "entry": entry,
    }
    manifest_json = json.dumps(manifest, sort_keys=True)
    payload = {
        "manifest": np.asarray(manifest_json),
        "checksum": np.asarray(_checksum(manifest_json, arrays)),
    }
    payload.update(arrays)
    _atomic_savez(Path(path), payload)
    return manifest


def load_shard_segment(
    path: str | Path,
) -> tuple[dict, ShardBackend | None]:
    """Read a segment written by :func:`save_shard_segment`.

    Returns ``(segment manifest, live shard backend or None)`` after
    checksum verification; raises :class:`IndexPersistError` for
    corrupted, truncated or non-segment files.
    """
    manifest, arrays = _read_verified(path, SEGMENT_FORMAT_NAME)
    entry = manifest.get("entry")
    if entry is None:
        return manifest, None
    return manifest, _decode_shard(entry, arrays)


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "SEGMENT_FORMAT_NAME",
    "IndexPersistError",
    "encode_shard_state",
    "load_index",
    "load_shard_segment",
    "read_manifest",
    "save_index",
    "save_shard_segment",
]
