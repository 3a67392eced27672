"""Batch query execution over a (sharded) corrected index.

:class:`BatchExecutor` turns an array of point lookups or ``(lo, hi)``
range queries into per-shard vectorised pipeline runs:

1. **route** — one vectorised ``searchsorted`` assigns every query a
   shard;
2. **group** — a stable argsort gathers each shard's queries into one
   contiguous chunk (cache-friendly, one model/layer pass per shard);
3. **execute** — each chunk runs the shard's fully-vectorised
   predict → correct → bounded-search pipeline
   (:meth:`CorrectedIndex.lookup_batch_vectorized`), optionally across a
   thread pool (numpy releases the GIL inside the heavy kernels);
4. **scatter** — shard-local answers plus shard base offsets land back
   in the original query order.

``mode="scalar"`` keeps the per-query Python reference loop; it exists
so benchmarks and tests can quantify exactly what vectorisation buys.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.corrected_index import CorrectedIndex
from ..core.records import coerce_query_array
from ..core.shift_table import ShiftTable
from .plan import ExecutionPlan, ShardSlice
from .sharded import ShardedIndex

MODES = ("vectorized", "scalar")


def _as_sharded(index: ShardedIndex | CorrectedIndex) -> ShardedIndex:
    """Adopt a plain CorrectedIndex as a degenerate one-shard index."""
    if isinstance(index, ShardedIndex):
        return index
    keys = index.data.keys
    offsets = np.asarray([0, len(keys)], dtype=np.int64)
    return ShardedIndex([index], offsets, keys, name=index.name)


class BatchExecutor:
    """Routes, groups and executes query batches against an index."""

    def __init__(
        self,
        index: ShardedIndex | CorrectedIndex,
        mode: str = "vectorized",
        workers: int | None = None,
        tracker=None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.index = _as_sharded(index)
        self.mode = mode
        self.workers = int(workers) if workers else 1
        #: optional :class:`~repro.hardware.tracker.SimTracker`: when
        #: installed, point lookups charge the canonical per-query probe
        #: sequence (Algorithm 1) through it, so scalar and batch
        #: execution charge identical probe counts by construction
        self.tracker = tracker
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # worker-pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self) -> ThreadPoolExecutor:
        """Lazily-created pool, reused across batches (serving hot path)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (no-op if none was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, queries: np.ndarray) -> ExecutionPlan:
        """Route a batch without executing it (the engine's EXPLAIN)."""
        queries = np.asarray(queries)
        index = self.index
        slices: list[ShardSlice] = []
        if queries.size and len(index):
            shard_ids = index.route_batch(queries)
            counts = np.bincount(shard_ids, minlength=index.num_shards)
            for s in np.flatnonzero(counts):
                shard = index.shards[int(s)]
                assert shard is not None, "router targeted an empty shard"
                expected = (
                    shard.layer.expected_window()
                    if isinstance(shard.layer, ShiftTable)
                    else None
                )
                slices.append(
                    ShardSlice(
                        shard_id=int(s),
                        num_queries=int(counts[s]),
                        num_keys=len(shard),
                        index_name=shard.name,
                        strategy=shard.strategy(),
                        expected_window=expected,
                        backend=shard.kind,
                        pending_updates=shard.pending,
                        origin=shard.origin,
                        decision=shard.decision_label,
                    )
                )
        return ExecutionPlan(
            num_queries=int(queries.size),
            num_shards=index.num_shards,
            mode=self.mode,
            workers=self.workers,
            slices=slices,
            num_splits=index.num_splits,
            num_merges=index.num_merges,
        )

    def explain(self, queries: np.ndarray) -> str:
        """Human-readable :meth:`plan` (mirrors the CLI output)."""
        return self.plan(queries).describe()

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Global lower-bound position for every query, original order."""
        # shards re-normalise their own chunks (and patch overflow lanes
        # to exact answers), so the original queries pass through; only
        # routing uses the clamped dtype view
        queries = np.asarray(queries)
        out = np.empty(queries.size, dtype=np.int64)
        if queries.size == 0:
            return out
        if len(self.index) == 0:
            # every key was deleted: the global lower bound is 0 everywhere
            out[:] = 0
            return out
        if self.mode == "scalar" or self.tracker is not None:
            # traced batches run the sequential reference path: hardware
            # cost simulation needs the exact Algorithm-1 probe order,
            # which vectorised lane passes reorder
            index = self.index
            tracker = self.tracker
            for i, q in enumerate(queries):  # repro: noqa[RPR501] — traced/scalar reference path must charge the sequential Algorithm-1 probe order
                out[i] = (
                    index.lookup(q)
                    if tracker is None
                    else index.lookup(q, tracker)
                )
            return out

        index = self.index
        if len(index._nonempty) == 1:
            # one live shard: routing, grouping and scatter are all
            # identity — skip them (the serving layer's small batches
            # are dominated by exactly this fixed overhead)
            s = int(index._nonempty[0])
            shard = index.shards[s]
            shard.stats.reads += int(queries.size)
            out[:] = shard.lookup_batch(queries) + int(index.offsets[s])
            return out
        shard_ids = index.route_batch(queries)
        order = np.argsort(shard_ids, kind="stable")
        sorted_ids = shard_ids[order]
        # chunk bounds: one contiguous run per touched shard
        cut = np.flatnonzero(np.diff(sorted_ids)) + 1
        chunk_bounds = np.concatenate(([0], cut, [len(order)]))

        def run_chunk(a: int, b: int) -> None:
            take = order[a:b]
            s = int(sorted_ids[a])
            shard = index.shards[s]
            assert shard is not None, "router targeted an empty shard"
            # each chunk touches a distinct shard, so the workload
            # counter update is race-free even across pool workers
            shard.stats.reads += int(b - a)
            # backends answer in shard-local *logical* ranks, so the
            # shard base offset still globalises them under updates
            out[take] = shard.lookup_batch(queries[take]) + int(
                index.offsets[s]
            )

        spans = list(zip(chunk_bounds[:-1], chunk_bounds[1:]))
        if self.workers > 1 and len(spans) > 1:
            list(self._get_pool().map(lambda ab: run_chunk(*ab), spans))
        else:
            for a, b in spans:
                run_chunk(a, b)
        return out

    # ------------------------------------------------------------------
    # range queries
    # ------------------------------------------------------------------
    def range_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``[first, last)`` global positions per ``lo <= key < hi`` query.

        Both bounds are independent global lower bounds, so a range may
        straddle any number of shard cuts; inverted ranges come back
        empty (``first == last``) like the scalar range engine.
        """
        # raw client bounds may be a mixed python list whose dtype
        # inference lands on float64; coerce into the key domain exactly
        # and patch the above-domain lanes (true lower bound: len(index))
        lows, oob_lo = coerce_query_array(lows, self.index.key_dtype)
        highs, oob_hi = coerce_query_array(highs, self.index.key_dtype)
        if lows.shape != highs.shape:
            raise ValueError("lows and highs must align")
        first = self.lookup_batch(lows)
        last = self.lookup_batch(highs)
        # guard inverted ranges (hi <= lo): empty, anchored at first —
        # unless hi only *clamped* equal to lo from above the domain
        bad = highs <= lows
        if oob_hi is not None:
            bad &= ~oob_hi
        last[bad] = first[bad]
        n = len(self.index)
        if oob_lo is not None:
            first[oob_lo] = n
        if oob_hi is not None:
            last[oob_hi] = n
        return first, np.maximum(first, last)

    def count_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Cardinality of every ``lo <= key < hi`` range."""
        first, last = self.range_batch(lows, highs)
        return last - first

    def scan_batch(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> list[np.ndarray]:
        """Materialised key slices per range (clustered scans)."""
        first, last = self.range_batch(lows, highs)
        keys = self.index.keys
        return [keys[a:b] for a, b in zip(first, last)]
