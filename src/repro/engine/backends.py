"""Pluggable per-shard storage backends for the updatable engine.

The batch engine's shards were read-only ``CorrectedIndex`` objects; a
:class:`ShardBackend` generalises the shard into a small storage engine
that also absorbs ``insert``/``delete`` and can ``refresh`` itself
(amortised rebuild) when its update slack runs out.  Three backends
implement the repo's two update designs plus the trivial one:

* ``"static"``  — rebuild-on-write: every mutation re-sorts the shard's
  key slice and refits model + layer.  Reads stay as fast as the
  read-only engine; writes cost O(shard).
* ``"gapped"``  — :class:`~repro.core.gapped.GappedLearnedIndex`
  (ALEX-style): inserts memmove to the nearest gap, deletes clear an
  occupancy bit, the correction layer is rebuilt amortised.
* ``"fenwick"`` — :class:`~repro.core.fenwick.UpdatableCorrectedIndex`
  (the paper's §6 sketch): base array untouched, inserts/deletes
  buffered, lookups merge buffer ranks, periodic merge folds the
  buffers back.

All backends answer in *logical* ranks — positions in the shard's live,
gap-free key sequence — so the sharded router can keep treating every
answer as ``shard offset + local rank``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.compact import CompactShiftTable
from ..core.corrected_index import CorrectedIndex
from ..core.fenwick import UpdatableCorrectedIndex
from ..core.gapped import GappedLearnedIndex
from ..core.shift_table import ShiftTable
from ..hardware.machine import DEFAULT_PAYLOAD_BYTES
from ..hardware.tracker import NULL_TRACKER, NullTracker
from ..models.factory import build_corrected_index, check_engine_shape
from ..models.interpolation import InterpolationModel
from ..models.rmi import RMIModel

#: Shard storage engines the sharded index can be built with.
BACKEND_KINDS = ("static", "gapped", "fenwick")

#: Model type -> served family name, for adopting a bare CorrectedIndex.
_MODEL_KINDS = {InterpolationModel: "interpolation", RMIModel: "rmi"}


@dataclass
class ShardStats:
    """Observed per-shard workload counters (feeds the §3.9 auto-tuner).

    ``reads`` counts queries the executor routed to the shard, ``writes``
    counts routed inserts/deletes.  The counters survive shard rebuilds
    triggered by a retune (the observation window carries over) and are
    summed when shards merge; a split resets both children.
    """

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        """Observed operations in the current window."""
        return self.reads + self.writes

    def write_fraction(self) -> float:
        """Observed write mix in ``[0, 1]`` (0.0 before any operation)."""
        if self.total == 0:
            return 0.0
        return self.writes / self.total

    def merged_with(self, other: "ShardStats") -> "ShardStats":
        """Combined counters for a shard built from two merged shards."""
        return ShardStats(self.reads + other.reads,
                          self.writes + other.writes)


@dataclass(frozen=True)
class BackendConfig:
    """How a shard (re)builds its model, layer and update machinery.

    ``model`` is a served family (``"interpolation"`` | ``"rmi"``) and
    ``layer`` a served correction layer (``"R"`` | ``"S"``); any other
    shape raises ``ValueError`` naming it.  ``density`` only affects the
    gapped backend (fraction of slots holding real keys);
    ``merge_threshold`` only the fenwick backend (buffered updates
    before a merge is due).  The gapped backend always uses an R-mode
    layer over its gapped array, so ``layer`` applies to the static and
    fenwick backends.
    """

    model: str = "interpolation"
    layer: str = "R"
    layer_partitions: int | None = None
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    density: float = 0.75
    merge_threshold: int = 4096

    def __post_init__(self) -> None:
        check_engine_shape(self.model, self.layer)


def config_from_index(index: CorrectedIndex,
                      defaults: BackendConfig) -> BackendConfig:
    """Derive a rebuild config matching an adopted index's configuration.

    When a bare :class:`CorrectedIndex` (the read-only construction
    path) is adopted as a shard backend, post-mutation rebuilds must
    refit *its* model family and layer mode — not the engine defaults.
    An index the engine does not serve (another model type, an RMI
    with a non-linear root, no correction layer) raises ``ValueError``
    naming it.
    """
    model = index.model
    kind = _MODEL_KINDS.get(type(model), type(model).__name__)
    if kind == "rmi" and model.root_kind != "linear":
        kind = f"rmi with a {model.root_kind} root"
    layer, partitions = None, None
    if isinstance(index.layer, ShiftTable):
        layer = "R"
        partitions = (
            index.layer.num_partitions
            if index.layer.num_partitions != index.layer.num_keys else None
        )
    elif isinstance(index.layer, CompactShiftTable):
        layer = "S"
        partitions = index.layer.num_partitions
    return replace(
        defaults, model=kind, layer=layer, layer_partitions=partitions,
        payload_bytes=index.data.payload_bytes,
    )


class ShardBackend:
    """One shard's storage engine: logical-rank reads + writes.

    Subclasses must provide ``self._index`` (the primary
    :class:`CorrectedIndex` view used for planning/diagnostics) and the
    query/update methods.  The ``data``/``model``/``layer`` properties
    exist so planning code and tests can introspect a shard without
    caring which backend it runs.
    """

    kind: str = "?"
    #: live size at which the last split attempt came back degenerate
    #: (one giant duplicate run); lets the sharded layer back off
    #: instead of re-materialising the shard's keys on every insert
    split_failed_at: int = 0
    #: how this shard came to be: "build", "split", "merge" or "retune"
    #: (surfaces in plan()/explain() lineage columns)
    origin: str = "build"
    #: compact tuner-decision label (e.g. "rmi+R/gapped"), set by the
    #: auto-tuner; None for shards built from a hand-picked config
    decision_label: str | None = None
    _stats: ShardStats | None = None

    @property
    def stats(self) -> ShardStats:
        """Per-shard workload counters.

        Concrete backends initialise ``_stats`` eagerly in their
        constructors so lock-free readers and lock-holding writers never
        race to create it; the lazy fallback only serves exotic
        subclasses that skip the stock constructors.
        """
        if self._stats is None:
            self._stats = ShardStats()
        return self._stats

    # -- introspection -------------------------------------------------
    @property
    def index(self) -> CorrectedIndex:
        return self._index

    @property
    def data(self):
        return self.index.data

    @property
    def model(self):
        return self.index.model

    @property
    def layer(self):
        return self.index.layer

    @property
    def name(self) -> str:
        return self.index.name

    def size_bytes(self) -> int:
        """Model + layer footprint in bytes (excludes the key data)."""
        return self.index.size_bytes()

    def strategy(self) -> str:
        """Last-mile strategy label the shard's configuration implies."""
        if isinstance(self.index.layer, ShiftTable):
            return "R-window + bounded batch search"
        return "S-point ± expected error"

    def min_key(self):
        """Smallest live key (the shard's routing boundary)."""
        return self.keys()[0]

    # -- abstract ------------------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def keys(self) -> np.ndarray:
        """The live, logical (sorted, gap-free) key sequence."""
        raise NotImplementedError

    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        """Logical lower-bound rank of ``q`` in the live keys."""
        raise NotImplementedError

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup` (one pipeline pass per batch)."""
        raise NotImplementedError

    def insert(self, key) -> None:
        """Insert ``key`` into the shard (duplicates allowed)."""
        raise NotImplementedError

    def delete(self, key) -> None:
        """Delete one occurrence of ``key`` (KeyError if absent)."""
        raise NotImplementedError

    def refresh(self) -> None:
        """Amortised rebuild: fold updates back into a clean state."""
        raise NotImplementedError

    @property
    def pending(self) -> int:
        """Update staleness: mutations not yet folded into the base."""
        raise NotImplementedError

    def needs_refresh(self) -> bool:
        """True once the backend's update slack has run out."""
        raise NotImplementedError


class StaticBackend(ShardBackend):
    """Rebuild-on-write: the read-only engine's behaviour, made writable."""

    kind = "static"

    def __init__(
        self,
        source: CorrectedIndex | np.ndarray,
        config: BackendConfig,
        name: str = "static",
    ) -> None:
        self.config = config
        self._stats = ShardStats()
        if isinstance(source, CorrectedIndex):
            self._index = source
        else:
            self._index = build_corrected_index(
                source, config.model, config.layer, config.layer_partitions,
                config.payload_bytes, name,
            )

    def __len__(self) -> int:
        return 0 if self._index is None else len(self._index.data)

    def keys(self) -> np.ndarray:
        if self._index is None:
            return self._empty_keys
        return self._index.data.keys

    def min_key(self):
        return self._index.data.keys[0]

    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        return self._index.lookup(q, tracker)

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._index.lookup_batch_vectorized(queries)

    def _set_keys(self, keys: np.ndarray) -> None:
        self._index = build_corrected_index(
            keys, self.config.model, self.config.layer,
            self.config.layer_partitions, self.config.payload_bytes,
            self._index.data.name,
        )

    def insert(self, key) -> None:
        keys = self._index.data.keys
        pos = int(np.searchsorted(keys, key, side="left"))
        self._set_keys(np.insert(keys, pos, key))

    def delete(self, key) -> None:
        keys = self._index.data.keys
        pos = int(np.searchsorted(keys, key, side="left"))
        if pos >= len(keys) or keys[pos] != key:
            raise KeyError(key)
        if len(keys) == 1:
            # emptied: the sharded layer drops the shard; keep a valid
            # zero-length view so len()/keys() stay answerable
            self._empty_keys = keys[:0]
            self._index = None  # type: ignore[assignment]
            return
        self._set_keys(np.delete(keys, pos))

    def refresh(self) -> None:
        pass  # every write already rebuilt; nothing is ever stale

    @property
    def pending(self) -> int:
        return 0

    def needs_refresh(self) -> bool:
        return False


class GappedBackend(ShardBackend):
    """ALEX-style gapped array with amortised layer refresh."""

    kind = "gapped"

    def __init__(self, keys: np.ndarray, config: BackendConfig,
                 name: str = "gapped") -> None:
        self.config = config
        self._stats = ShardStats()
        self._g = GappedLearnedIndex(
            keys, density=config.density, name=name, model=config.model
        )

    @property
    def index(self) -> CorrectedIndex:
        return self._g._index

    @property
    def name(self) -> str:
        return self._g.name

    def size_bytes(self) -> int:
        # model + layer over the gapped array, plus the occupancy bitmap
        return self._g._index.size_bytes() + self._g._occupied.nbytes

    def __len__(self) -> int:
        return self._g.num_keys

    def keys(self) -> np.ndarray:
        return self._g.real_keys()

    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        return self._g.rank(q, tracker)

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._g.rank_batch(queries)

    def min_key(self):
        return self._g.min_key()

    def insert(self, key) -> None:
        self._g.insert(key)

    def delete(self, key) -> None:
        self._g.delete(key)

    def refresh(self) -> None:
        self._g.compact()

    @property
    def pending(self) -> int:
        return self._g.pending

    def needs_refresh(self) -> bool:
        return self._g.needs_expand()


class FenwickBackend(ShardBackend):
    """Delta-main buffers + Fenwick drift tracking (the §6 sketch)."""

    kind = "fenwick"

    def __init__(self, keys: np.ndarray, config: BackendConfig,
                 name: str = "fenwick") -> None:
        self.config = config
        self._stats = ShardStats()
        self._u = self._build(keys, name)

    def _build(self, keys: np.ndarray, name: str) -> UpdatableCorrectedIndex:
        config = self.config
        base = build_corrected_index(
            keys, config.model, config.layer, config.layer_partitions,
            config.payload_bytes, name,
        )
        # scale the merge trigger down for small shards so the delta
        # buffer can never dwarf the base it shadows (a user-supplied
        # threshold below the cap is honoured as-is)
        threshold = max(1, min(config.merge_threshold,
                               max(1, len(keys) // 4)))
        return UpdatableCorrectedIndex(base, merge_threshold=threshold)

    @property
    def index(self) -> CorrectedIndex:
        return self._u.base

    @property
    def name(self) -> str:
        return self._u.base.name

    def strategy(self) -> str:
        return super().strategy() + " + delta/tombstone merge"

    def __len__(self) -> int:
        return len(self._u)

    def keys(self) -> np.ndarray:
        return self._u.merged_keys()

    def min_key(self):
        return self._u.min_key()

    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        return self._u.lookup(q, tracker)

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        return self._u.lookup_batch(queries)

    def insert(self, key) -> None:
        self._u.insert(key)

    def delete(self, key) -> None:
        self._u.delete(key)

    def refresh(self) -> None:
        if self._u.pending_updates == 0:
            return  # nothing buffered: a rebuild would be bit-identical
        merged = self._u.merged_keys()
        if len(merged) == 0:
            raise ValueError("cannot refresh an empty shard backend")
        self._u = self._build(merged, self._u.base.name)

    @property
    def pending(self) -> int:
        return self._u.pending_updates

    def needs_refresh(self) -> bool:
        return self._u.needs_merge()


_BACKENDS = {
    "static": StaticBackend,
    "gapped": GappedBackend,
    "fenwick": FenwickBackend,
}


def make_backend(kind: str, keys: np.ndarray, config: BackendConfig,
                 name: str = "shard") -> ShardBackend:
    """Build a shard backend of ``kind`` over a sorted key slice."""
    try:
        backend_cls = _BACKENDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown backend kind {kind!r}; known: {BACKEND_KINDS}"
        ) from None
    return backend_cls(keys, config, name=name)
