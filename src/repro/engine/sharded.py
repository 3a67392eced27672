"""Range-partitioned learned index: K shards, each model + correction.

A :class:`ShardedIndex` splits one sorted key array into ``K``
contiguous, equal-count ranges and builds an independent shard backend
(model + optional Shift-Table layer, plus update machinery — see
:mod:`repro.engine.backends`) over each.  Global positions are
shard-local *logical* ranks plus the shard's base offset, so every
answer remains a global lower bound over the live key sequence.

Two invariants make the vectorised router exact:

* **Run-aligned cuts** — tentative equal-count shard boundaries are
  snapped left to the start of their duplicate run, so a run of equal
  keys never straddles two shards and a routed lower bound is the
  *global* lower bound.  Updates preserve this: inserts route through
  the same boundaries, so every copy of a key lands in the same shard.
* **Empty-shard routing** — snapping (and ``K`` larger than the number
  of distinct keys, and deletes draining a shard) can leave shards
  empty.  Empty shards own no routing interval and are unreachable;
  routes past the last non-empty shard are clamped back to it, which
  answers ``q > max(keys)`` with position ``n`` like the scalar path.

Routing itself is one vectorised ``searchsorted`` over the boundary
keys — the sharding analogue of the paper's "one memory lookup before
the bounded search".

Updates (:meth:`insert` / :meth:`delete`) route exactly like queries,
mutate one shard backend, and shift the base offsets of every later
shard.  The write-concurrency model is **one writer at a time,
structural or not**: every mutation — content or structure — and its
listener chain (WAL append, cache invalidation, replication tap) runs
under the one re-entrant ``_write_lock``, so apply order is LSN order
by construction and there is exactly one write body per operation.
Routing boundaries are allowed to go *stale* under deletes (a
shard's smallest key may be deleted): a query falling between a stale
boundary and the shard's live minimum answers identically whether the
router sends it to this shard (local rank 0) or the previous one (local
rank = shard size), so no eager boundary maintenance is needed.  When a
shard's update slack runs out it is refreshed in place, or split in two
at a run-aligned median once it has outgrown twice the build-time
target shard size.  The structural dual also exists: a shard shrunk by
deletes below a quarter of the target size **merges** into its smaller
non-empty neighbour (:meth:`_merge_shards` — run-alignment is free
because adjacent shards hold adjacent key ranges), so cold shards
coalesce instead of lingering, and the §3.9 auto-tuner
(:mod:`repro.engine.autotune`, :meth:`retune`) can resize the shard set
in both directions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.corrected_index import CorrectedIndex
from ..core.records import normalize_query_dtype
from ..hardware.machine import DEFAULT_PAYLOAD_BYTES
from .backends import (
    BACKEND_KINDS,
    BackendConfig,
    ShardBackend,
    StaticBackend,
    config_from_index,
    make_backend,
)


def _as_tuner(auto_tune):
    """Normalise the ``auto_tune`` argument into a ShardTuner or None.

    Accepts ``False``/``None`` (tuning off), ``True`` (default
    :class:`~repro.engine.autotune.AutoTuneConfig`), an
    ``AutoTuneConfig``, or a ready :class:`ShardTuner`.
    """
    if not auto_tune:
        return None
    from .autotune import AutoTuneConfig, ShardTuner

    if isinstance(auto_tune, ShardTuner):
        return auto_tune
    if isinstance(auto_tune, AutoTuneConfig):
        return ShardTuner(auto_tune)
    return ShardTuner()


@dataclass(frozen=True)
class WriteEvent:
    """One observed mutation, delivered to registered write listeners.

    ``span`` is the *inclusive* key interval the write may have touched:
    the mutated shard's routing interval widened to contain ``key``
    (``span[1] is None`` means unbounded above — the last shard).
    Content-changing kinds are ``"insert"`` and ``"delete"``;
    ``"refresh"`` folds buffered updates back and ``"retune"`` re-runs
    the §3.9 tuner over the shards — both without changing the logical
    key sequence, so listeners caching *answers* can ignore them.
    Refreshes, retunes and shard splits/merges/drains preserve content
    and therefore never produce their own spanned events.
    """

    kind: str
    shard: int
    key: object | None = None
    span: tuple | None = None

    def overlaps(self, lo, hi) -> bool:
        """Whether a ``lo <= key < hi`` range can see this write.

        Conservative: ``refresh`` events (no ``span``) report no
        overlap because they never change the logical key sequence.
        """
        if self.span is None:
            return False
        span_lo, span_hi = self.span
        return bool(hi > span_lo) and (span_hi is None or bool(lo <= span_hi))


def snap_offsets(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Equal-count shard offsets, snapped to duplicate-run starts.

    Returns ``num_shards + 1`` non-decreasing offsets with ``0`` first
    and ``len(keys)`` last.  Offsets only ever move *left* (to the first
    occurrence of the boundary key), so shards stay contiguous and
    ordered; heavy duplication can collapse some shards to empty.
    """
    n = len(keys)
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    raw = np.linspace(0, n, num_shards + 1).round().astype(np.int64)
    interior = raw[1:-1]
    inside = (interior > 0) & (interior < n)
    snapped = interior.copy()
    if inside.any():
        snapped[inside] = np.searchsorted(
            keys, keys[interior[inside]], side="left"
        )
    offsets = np.empty(num_shards + 1, dtype=np.int64)
    offsets[0] = 0
    offsets[-1] = n
    offsets[1:-1] = snapped
    return offsets


class ShardedIndex:
    """K range shards, each an updatable :class:`ShardBackend`."""

    def __init__(
        self,
        shards: list[ShardBackend | CorrectedIndex | None],
        offsets: np.ndarray,
        keys: np.ndarray,
        name: str = "sharded",
        config: BackendConfig | None = None,
        backend: str = "static",
        auto_tune=False,
    ) -> None:
        if len(shards) != len(offsets) - 1:
            raise ValueError("need exactly one offset interval per shard")
        #: the §3.9 per-shard tuner :meth:`retune` consults (None: manual
        #: config only; retune() can still be invoked with an explicit
        #: tuner).  Accepts bool | AutoTuneConfig | ShardTuner.
        self.tuner = _as_tuner(auto_tune)
        #: lifetime structural-maintenance counters (plan/explain columns)
        self.num_splits = 0
        self.num_merges = 0
        self.config = config if config is not None else BackendConfig()
        self.backend_kind = backend
        # adopt bare CorrectedIndex shards (the read-only construction
        # path) as static backends, each carrying a rebuild config
        # derived from its own model/layer so a post-write refit does
        # not silently swap in the engine defaults
        self.shards: list[ShardBackend | None] = [
            StaticBackend(s, config_from_index(s, self.config))
            if isinstance(s, CorrectedIndex) else s
            for s in shards
        ]
        self.offsets = np.asarray(offsets, dtype=np.int64).copy()
        keys = np.asarray(keys)
        self._keys = keys
        self._keys_dirty = False
        self.key_dtype = keys.dtype
        self.name = name
        self.num_shards = len(self.shards)
        #: provenance: "built" for freshly-fitted indexes, "loaded" when
        #: reopened from disk without refitting (``engine/persist``)
        self.source = "built"
        if len(keys) == 0:
            raise ValueError("a ShardedIndex needs at least one key")
        #: build-time keys per shard; a shard splits once it doubles this
        self._target_shard_keys = max(1, len(keys) // max(1, self.num_shards))
        #: THE write-concurrency model: one writer at a time, structural
        #: or not.  Every mutation (insert, delete, refresh, split,
        #: merge, retune, checkpoint snapshot) runs under this one
        #: re-entrant lock, listeners included, so apply order is LSN
        #: order by construction.  Reads stay lock-free — they are only
        #: safe concurrently with writes when an outer layer (e.g. the
        #: asyncio serving front end) orders them onto one thread.
        self._write_lock = threading.RLock()
        self._write_listeners: list[Callable[[WriteEvent], None]] = []
        #: while True, structural maintenance (splits, merges) is
        #: deferred: shard ids stay stable so an incremental checkpoint
        #: (``engine/durability``) can flush one shard at a time while
        #: writers keep mutating.  Set/cleared under the write lock;
        #: :meth:`resume_maintenance` catches up the deferred work.
        self._defer_maintenance = 0  # depth: passes in flight
        self._refresh_routing()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        num_shards: int,
        model: str = "interpolation",
        layer: str = "R",
        layer_partitions: int | None = None,
        payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
        name: str = "sharded",
        backend: str = "static",
        density: float = 0.75,
        merge_threshold: int = 4096,
        auto_tune=False,
    ) -> "ShardedIndex":
        """Partition ``keys`` and fit a backend (model + layer) per shard.

        ``model`` is a served family, ``"interpolation"`` or ``"rmi"``
        (:data:`~repro.models.factory.MODEL_FACTORIES`); ``layer``
        selects the correction mode: ``"R"`` (guaranteed-window
        ShiftTable) or ``"S"`` (compact layer) — every engine shard is
        corrected; ``layer_partitions`` is the paper's ``M`` per shard
        (default ``M = N_shard``).  ``backend`` selects
        the shard storage engine (:data:`~repro.engine.backends.BACKEND_KINDS`):
        ``"static"`` rebuilds on every write, ``"gapped"`` keeps
        ALEX-style gaps, ``"fenwick"`` buffers deltas §6-style.

        ``auto_tune`` (bool, :class:`~repro.engine.autotune.AutoTuneConfig`
        or :class:`~repro.engine.autotune.ShardTuner`) runs the §3.9
        cost model per shard at build time: each shard large enough to
        matter gets the model family the tuner predicts fastest (with an
        R-mode layer) for *its* slice of the key distribution, instead of the
        global ``model``/``layer`` arguments.  The storage ``backend``
        stays as requested at build time — no workload has been
        observed yet; :meth:`retune` revisits it (and everything else)
        once per-shard read/write counters exist.

        Raises ``ValueError`` for empty/multi-dimensional keys, an
        unknown backend, or a model/layer the engine does not serve
        (named in the message).
        """
        keys = np.asarray(keys)
        if keys.ndim != 1 or len(keys) == 0:
            raise ValueError("keys must be a non-empty 1-d sorted array")
        if backend not in BACKEND_KINDS:
            raise ValueError(
                f"backend must be one of {BACKEND_KINDS}, got {backend!r}"
            )
        config = BackendConfig(
            model=model, layer=layer, layer_partitions=layer_partitions,
            payload_bytes=payload_bytes, density=density,
            merge_threshold=merge_threshold,
        )
        tuner = _as_tuner(auto_tune)
        offsets = snap_offsets(keys, num_shards)
        shards: list[ShardBackend | None] = []
        for s in range(num_shards):
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            if hi <= lo:
                shards.append(None)
                continue
            slice_keys = keys[lo:hi]
            shard_config, label = config, None
            if tuner is not None and len(slice_keys) >= \
                    tuner.config.min_shard_keys:
                decision = tuner.decide(slice_keys, backends=(backend,))
                shard_config = tuner.backend_config(decision, config)
                label = decision.label
            shard = make_backend(backend, slice_keys, shard_config,
                                 name=f"{name}_s{s}")
            shard.decision_label = label
            shards.append(shard)
        return cls(shards, offsets, keys, name=name, config=config,
                   backend=backend, auto_tune=tuner)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _refresh_routing(self) -> None:
        """Recompute the non-empty shard set and boundary keys.

        Called at build time and whenever the shard *set* changes (a
        split, or a delete draining a shard); ordinary inserts/deletes
        keep the existing boundaries, which stay correct even when
        stale (see the module docstring).
        """
        sizes = np.diff(self.offsets)
        self._nonempty = np.flatnonzero(sizes > 0)
        if len(self._nonempty) == 0:
            self._split_keys = np.empty(0, dtype=self.key_dtype)
            return
        self._split_keys = np.asarray(
            [self.shards[int(s)].min_key() for s in self._nonempty[1:]],
            dtype=self.key_dtype,
        )

    def normalize_queries(self, queries: np.ndarray) -> np.ndarray:
        """Routing view of a query batch in the key dtype (no wrap).

        Below-domain lanes clamp to the first shard and above-domain
        lanes to the last; the per-shard batch pipeline re-normalises
        with the overflow mask and patches those lanes to exact answers.
        """
        return normalize_query_dtype(queries, self.key_dtype)[0]

    def route_batch(self, queries: np.ndarray) -> np.ndarray:
        """Shard id per query (vectorised; never an empty shard).

        A query routes to the last non-empty shard whose boundary key is
        ``<= q`` (the first non-empty shard when ``q`` precedes all
        boundaries).  Because duplicate runs never straddle a cut, the
        shard's local lower bound plus its base offset is the global
        lower bound.
        """
        if len(self._nonempty) == 0:
            raise ValueError("cannot route queries on an empty index")
        queries = self.normalize_queries(queries)
        route = np.searchsorted(self._split_keys, queries, side="right")
        return self._nonempty[route]

    def route(self, q) -> int:
        """Shard id for one query."""
        return int(self.route_batch(np.asarray([q]))[0])

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, q, tracker=None) -> int:
        """Global lower-bound position of ``q`` (scalar reference path)."""
        n = int(self.offsets[-1])
        if n == 0:
            return 0
        # same no-wrap normalization as the batch path: a forced-dtype
        # cast of e.g. int64 -5 against uint64 keys would route (and
        # compare) as 2^64-5
        arr, oob_high = normalize_query_dtype(np.asarray([q]), self.key_dtype)
        if oob_high is not None and oob_high[0]:
            return n
        q = arr[0]
        s = int(self.route_batch(arr)[0])
        shard = self.shards[s]
        assert shard is not None, "router targeted an empty shard"
        shard.stats.reads += 1
        if tracker is None:
            return int(self.offsets[s]) + shard.lookup(q)
        return int(self.offsets[s]) + shard.lookup(q, tracker)

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised global lower bounds (group-by-shard, then batch).

        Thin convenience over the engine pipeline; use
        :class:`~repro.engine.executor.BatchExecutor` for planning,
        parallelism and range queries.
        """
        from .executor import BatchExecutor

        return BatchExecutor(self).lookup_batch(queries)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _cast_key(self, key):
        """Cast an update key into the key domain (no silent wrap)."""
        if self.key_dtype.kind in "iu":
            info = np.iinfo(self.key_dtype)
            as_int = int(key)
            if as_int < int(info.min) or as_int > int(info.max):
                raise ValueError(
                    f"key {key!r} outside the {self.key_dtype} key domain"
                )
            return self.key_dtype.type(as_int)
        return self.key_dtype.type(key)

    def add_write_listener(self, fn: Callable[[WriteEvent], None]) -> None:
        """Register ``fn`` to observe every mutation (cache invalidation).

        Listeners run synchronously at the end of :meth:`insert` /
        :meth:`delete` / :meth:`refresh`, while the write lock is still
        held, so a listener always sees the post-write index state and
        never interleaves with another writer.
        """
        self._write_listeners.append(fn)

    def remove_write_listener(self, fn: Callable[[WriteEvent], None]) -> None:
        """Unregister a listener added with :meth:`add_write_listener`."""
        self._write_listeners.remove(fn)

    def _notify(self, event: WriteEvent) -> None:
        for fn in self._write_listeners:
            fn(event)

    def shard_span(self, s: int) -> tuple | None:
        """Inclusive key span shard ``s`` answers for (None when empty).

        The upper bound is the next non-empty shard's minimum key —
        every key in shard ``s`` is strictly below it because duplicate
        runs never straddle a cut — or ``None`` (unbounded) for the last
        shard.  Cheap: no shard key materialisation.
        """
        shard = self.shards[s]
        if shard is None or len(shard) == 0:
            return None
        lo = shard.min_key()
        for t in self._nonempty:
            if int(t) > s:
                return (lo, self.shards[int(t)].min_key())
        return (lo, None)

    def _write_span(self, s: int, key) -> tuple:
        """The :class:`WriteEvent` span for a write of ``key`` to shard ``s``.

        Shard ``s``'s routing interval widened to contain ``key``: the
        upper bound is the next non-empty shard's *routing boundary*
        (always ``<=`` that shard's live minimum — inserts route by
        boundary, deletes only remove keys).  Call before any
        maintenance re-homes ``key``'s run.
        """
        shard = self.shards[s]
        if len(shard) == 0:  # the write drained the shard: only ``key`` moved
            return (key, key)
        pos = int(np.searchsorted(self._nonempty, s))
        lo = shard.min_key()
        hi = (self._split_keys[pos] if pos < len(self._split_keys)
              else None)
        return (min(lo, key), None if hi is None else max(hi, key))

    def insert(self, key) -> int:
        """Insert ``key`` into its shard; returns the shard id.

        Routes like a query, delegates to the shard backend, shifts the
        base offsets of all later shards, and runs shard maintenance
        (in-place refresh, or a run-aligned split once the shard has
        doubled its build-time size) when the backend's slack runs out.
        """
        key = self._cast_key(key)
        with self._write_lock:
            if len(self._nonempty) == 0:
                # every key was deleted: re-seed the first shard
                self.shards[0] = make_backend(
                    self.backend_kind, np.asarray([key], dtype=self.key_dtype),
                    self.config, name=f"{self.name}_s0",
                )
                self.offsets[1:] += 1
                self._keys_dirty = True
                self._refresh_routing()
                self._notify(WriteEvent("insert", 0, key, (key, None)))
                return 0
            s = int(self.route_batch(np.asarray([key]))[0])
            shard = self.shards[s]
            assert shard is not None, "router targeted an empty shard"
            shard.insert(key)
            shard.stats.writes += 1
            self.offsets[s + 1 :] += 1
            self._keys_dirty = True
            span = self._write_span(s, key)
            self._maybe_maintain(s)
            self._notify(WriteEvent("insert", s, key, span))
            return s

    def delete(self, key) -> int:
        """Delete one occurrence of ``key``; returns the shard id.

        Raises KeyError when the key is not present.  A delete that
        drains its shard drops the shard from routing; one that leaves
        the shard *near-empty* (a quarter of the build-time target or
        less) merges it into its smaller non-empty neighbour instead of
        letting a sliver shard linger.
        """
        try:
            key = self._cast_key(key)
        except ValueError:
            raise KeyError(key) from None
        with self._write_lock:
            if len(self._nonempty) == 0:
                raise KeyError(key)
            s = int(self.route_batch(np.asarray([key]))[0])
            shard = self.shards[s]
            assert shard is not None, "router targeted an empty shard"
            shard.delete(key)
            shard.stats.writes += 1
            self.offsets[s + 1 :] -= 1
            self._keys_dirty = True
            # span before maintenance: a split or merge can re-home
            # ``key``'s run
            span = self._write_span(s, key)
            if len(shard) == 0:
                self.shards[s] = None
                self._refresh_routing()
            elif len(shard) <= max(self._target_shard_keys // 4, 1) and \
                    self._merge_into_neighbour(s) is not None:
                pass  # coalesced; _merge_shards refreshed the routing
            else:
                # delete-heavy workloads accumulate tombstones too: give the
                # backend its amortised merge when the slack runs out
                self._maybe_maintain(s)
            self._notify(WriteEvent("delete", s, key, span))
            return s

    def refresh(self) -> None:
        """Fold pending updates back into every shard (amortised rebuild)."""
        with self._write_lock:
            for s in self._nonempty:
                self.shards[int(s)].refresh()
            self._notify(WriteEvent("refresh", -1))

    def defer_maintenance(self) -> None:
        """Freeze the shard *structure* (no splits/merges) until resumed.

        Inserts, deletes and in-place refreshes keep working; only the
        operations that renumber shards are parked.  The incremental
        checkpointer (:mod:`repro.engine.durability`) wraps its pass in
        this so per-shard segment files and WAL shard tags agree about
        which shard is which.  Calls nest: a ``save()`` racing a
        background checkpoint each defer and resume once, and the
        structure stays frozen until the last of them resumes.
        """
        with self._write_lock:
            self._defer_maintenance += 1

    def resume_maintenance(self) -> None:
        """Re-enable splits/merges and catch up the deferred ones.

        Sweeps the live shards (highest id first, so a split's id shift
        never disturbs the remaining sweep) and applies the split /
        refresh each shard has earned while maintenance was parked;
        merges stay lazy — the next delete or retune pass picks them up,
        exactly as it would after any quiet period.
        """
        with self._write_lock:
            if not self._defer_maintenance:
                return
            self._defer_maintenance -= 1
            if self._defer_maintenance:
                return  # another pass still needs the structure frozen
            for s in sorted((int(x) for x in self._nonempty),
                            reverse=True):
                self._maybe_maintain(s)

    def _maybe_maintain(self, s: int) -> None:
        """Split an outgrown shard; refresh one whose slack ran out."""
        shard = self.shards[s]
        if shard is None:
            return
        if self._defer_maintenance:
            # a checkpoint pass is flushing shards: structure must stay
            # put, but an in-place refresh is content- and id-stable,
            # so buffered backends still get their amortised merge
            if shard.needs_refresh():
                shard.refresh()
            return
        size = len(shard)
        if size >= max(2 * self._target_shard_keys, 8):
            # a shard holding one giant duplicate run cannot split; back
            # off until it grows another 25% instead of re-materialising
            # its keys on every insert
            if size >= shard.split_failed_at + max(
                shard.split_failed_at // 4, 1
            ):
                if self._split_shard(s):
                    return
                shard.split_failed_at = size
        if shard.needs_refresh():
            shard.refresh()

    def _split_shard(self, s: int) -> bool:
        """Split shard ``s`` at its run-aligned median; False if degenerate.

        The cut is snapped left to the start of the median key's
        duplicate run (the same invariant as :func:`snap_offsets`); a
        shard holding one giant run cannot split and refreshes instead.
        """
        shard = self.shards[s]
        logical = shard.keys()
        mid = int(np.searchsorted(logical, logical[len(logical) // 2],
                                  side="left"))
        if mid == 0 or mid == len(logical):
            return False
        # rebuild from the shard's OWN config (an adopted shard may be
        # configured differently from the engine defaults)
        left = make_backend(shard.kind, logical[:mid], shard.config,
                            name=f"{self.name}_s{s}a")
        right = make_backend(shard.kind, logical[mid:], shard.config,
                             name=f"{self.name}_s{s}b")
        left.origin = right.origin = "split"
        left.decision_label = right.decision_label = shard.decision_label
        self.shards[s : s + 1] = [left, right]
        self.offsets = np.insert(self.offsets, s + 1,
                                 int(self.offsets[s]) + mid)
        self.num_shards += 1
        self.num_splits += 1
        self._refresh_routing()
        return True

    def _merge_into_neighbour(self, s: int) -> int | None:
        """Merge shard ``s`` with an adjacent non-empty shard, if one fits.

        The smaller of the two live neighbours is preferred, and a merge
        only happens when the combined shard stays under the 2× split
        trigger (otherwise the merged shard would immediately split
        again).  Returns the surviving shard id, or ``None`` when no
        viable neighbour exists.
        """
        if self._defer_maintenance:
            return None  # checkpoint in flight: shard ids must not move
        nonempty = [int(x) for x in self._nonempty]
        if s not in nonempty:
            return None
        pos = nonempty.index(s)
        candidates = []
        if pos > 0:
            candidates.append(nonempty[pos - 1])
        if pos < len(nonempty) - 1:
            candidates.append(nonempty[pos + 1])
        cap = max(2 * self._target_shard_keys, 8)
        viable = [
            t for t in candidates
            if len(self.shards[t]) + len(self.shards[s]) < cap
        ]
        if not viable:
            return None
        t = min(viable, key=lambda t: len(self.shards[t]))
        return self._merge_shards(min(s, t), max(s, t))

    def _merge_shards(self, lo: int, hi: int) -> int:
        """Coalesce shards ``lo`` and ``hi`` (the run-aligned dual of
        :meth:`_split_shard`).

        ``lo < hi`` must both be non-empty with only empty shards
        between them; adjacent shards hold adjacent key ranges, so their
        concatenated live keys are sorted and no duplicate run can
        straddle the seam — run-alignment is preserved by construction.
        The merged shard rebuilds with the larger ingredient's config
        and inherits the summed workload counters.  Returns the
        surviving shard id (``lo``).
        """
        left, right = self.shards[lo], self.shards[hi]
        merged_keys = np.concatenate([left.keys(), right.keys()])
        survivor = left if len(left) >= len(right) else right
        merged = make_backend(survivor.kind, merged_keys, survivor.config,
                              name=f"{self.name}_s{lo}m")
        merged.origin = "merge"
        merged.decision_label = survivor.decision_label
        merged._stats = left.stats.merged_with(right.stats)
        self.shards[lo : hi + 1] = [merged]
        self.offsets = np.delete(self.offsets, np.arange(lo + 1, hi + 1))
        self.num_shards -= hi - lo
        self.num_merges += 1
        self._refresh_routing()
        return lo

    # ------------------------------------------------------------------
    # auto-tuning
    # ------------------------------------------------------------------
    def retune(self, tuner=None) -> list[dict]:
        """Re-run the §3.9 cost model over every shard (maintenance pass).

        For each live shard, feeds the shard's key slice and observed
        read/write counters into the per-shard tuner
        (:class:`~repro.engine.autotune.ShardTuner`); a shard whose
        predicted-best configuration beats its current one by the
        tuner's ``switch_margin`` is rebuilt in place — model family,
        layer mode and storage backend can all change.  Hand-picked
        configs outside the tuner's search space are scored as the
        incumbent and enjoy the same hysteresis; only "S"-layer shards,
        which the tuner cannot price, are rebuilt without a margin
        check.  Afterwards a
        merge pass coalesces shards that have shrunk below
        ``merge_fraction`` of the build-time target, so the tuner can
        resize the shard set downward as well as upward (splits).

        ``tuner`` overrides the index's standing tuner (a default
        :class:`ShardTuner` is used when neither exists).  The logical
        key sequence is never changed, so cached answers stay valid;
        listeners see one ``WriteEvent("retune", -1)``.  Returns one
        action dict per shard visited: ``{"shard", "action", "label"}``
        with action ``"keep"``, ``"rebuild"`` or ``"merge"``.
        """
        from .autotune import ShardTuner, decision_from_config

        tuner = tuner if tuner is not None else self.tuner
        if tuner is None:
            tuner = ShardTuner()
        actions: list[dict] = []
        with self._write_lock:
            for s in [int(x) for x in self._nonempty]:
                shard = self.shards[s]
                if len(shard) < tuner.config.min_shard_keys:
                    continue
                current = decision_from_config(shard.config, shard.kind)
                decision = tuner.decide(shard.keys(), shard.stats,
                                        current=current)
                if decision.label == current.label:
                    shard.decision_label = decision.label
                    actions.append({"shard": s, "action": "keep",
                                    "label": decision.label,
                                    "decision": decision})
                    continue
                rebuilt = make_backend(
                    decision.backend, shard.keys(),
                    tuner.backend_config(decision, shard.config),
                    name=f"{self.name}_s{s}t",
                )
                rebuilt.origin = "retune"
                rebuilt.decision_label = decision.label
                rebuilt._stats = shard.stats  # keep the observation window
                self.shards[s] = rebuilt
                actions.append({"shard": s, "action": "rebuild",
                                "label": decision.label,
                                "decision": decision})
            self._refresh_routing()
            small = max(int(self._target_shard_keys
                            * tuner.config.merge_fraction), 1)
            merged = True
            while merged:
                merged = False
                for s in [int(x) for x in self._nonempty]:
                    if len(self.shards[s]) > small:
                        continue
                    survivor = self._merge_into_neighbour(s)
                    if survivor is not None:
                        actions.append({
                            "shard": survivor, "action": "merge",
                            "label": self.shards[survivor].decision_label,
                        })
                        merged = True
                        break
            self._notify(WriteEvent("retune", -1))
        return actions

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def keys(self) -> np.ndarray:
        """The live global key array (materialised lazily after updates).

        Rebuilding the cache mutates ``_keys``/``_keys_dirty``, which a
        concurrent writer also touches — without the lock two readers
        can interleave with an insert and publish a stale concatenation
        as "clean".  The write lock is re-entrant, so writer threads
        that already hold it read ``keys`` at no extra cost.
        """
        with self._write_lock:
            if self._keys_dirty:
                parts = [self.shards[int(s)].keys() for s in self._nonempty]
                self._keys = (
                    np.concatenate(parts) if parts
                    else np.empty(0, dtype=self.key_dtype)
                )
                self._keys_dirty = False
            return self._keys

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def shard_sizes(self) -> np.ndarray:
        """Live keys per shard (zeros mark empty shards)."""
        return np.diff(self.offsets)

    def pending_updates(self) -> int:
        """Mutations buffered across shards but not yet folded back."""
        return sum(
            self.shards[int(s)].pending for s in self._nonempty
        )

    def size_bytes(self) -> int:
        """Model + layer footprint summed over shards (excludes data)."""
        return sum(s.size_bytes() for s in self.shards if s is not None)

    def build_info(self) -> dict[str, object]:
        """One-line summary dict: shard counts, sizes, staleness, bytes."""
        sizes = self.shard_sizes()
        return {
            "name": self.name,
            "source": self.source,
            "num_shards": self.num_shards,
            "num_keys": len(self),
            "backend": self.backend_kind,
            "empty_shards": int((sizes == 0).sum()),
            "min_shard": int(sizes.min()),
            "max_shard": int(sizes.max()),
            "pending_updates": self.pending_updates(),
            "index_bytes": self.size_bytes(),
            "splits": self.num_splits,
            "merges": self.num_merges,
            "auto_tune": self.tuner is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedIndex(K={self.num_shards}, N={len(self)}, "
            f"backend={self.backend_kind}, "
            f"empty={int((self.shard_sizes() == 0).sum())})"
        )
