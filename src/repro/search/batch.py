"""Vectorised bounded batch search — the engine's last-mile hot path.

The scalar query path (Algorithm 1) resolves one window at a time with
:func:`~repro.search.local.bounded_local_search`.  The batch engine
instead carries *arrays* of per-query windows and resolves them with a
lane-parallel binary search: every numpy pass halves all still-open
windows at once, so a batch resolves in ``O(log max_window)`` vectorised
passes regardless of batch size, with no per-query Python loop.

The search applies the §3.8 edge validation: lanes whose result is
pinned to a window edge that does not actually bracket the query
(non-monotone models, merged partitions, S-mode point estimates) are
re-resolved exactly, so the batch path returns element-wise identical
answers to the scalar path.

Two entry points share that search: :func:`validated_search` fills a
preallocated int64 ``out`` and trusts its caller;
:func:`validated_lower_bound_batch` is the checked boundary the index
calls.  Dtype contract: query dtypes are **checked, not trusted** there —
:func:`~repro.core.records.ensure_kernel_query_dtype` raises on any
combination numpy would resolve by promoting 64-bit keys to float64
(the silent-corruption class above 2**53).  Callers route raw input
through ``normalize_query_dtype``/``coerce_query_array`` first.
"""

from __future__ import annotations

import numpy as np

from ..core.records import ensure_kernel_query_dtype


def _lanes_lower_bound(data, queries, lo, hi):
    """Lane-parallel bounded binary search (int64 ``lo``/``hi`` copies)."""
    lo = lo.copy()
    hi = hi.copy()
    if lo.size == 0:
        return lo
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        # inactive lanes probe index 0 (masked out below) so fancy
        # indexing never reads past the array
        probe = np.where(active, mid, 0)
        go_right = active & (data[probe] < queries)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)


def _validated(data, queries, lo, hi):
    """Bounded lanes plus the §3.8 edge-validation fallback."""
    n = len(data)
    result = _lanes_lower_bound(data, queries, lo, hi)
    if result.size == 0:
        return result
    # left edge: pinned at the window start, but the predecessor already
    # satisfies >= q, so the true lower bound is further left
    left = (result == lo) & (lo > 0)
    if left.any():
        left &= data[np.maximum(lo - 1, 0)] >= queries
    # right edge: exhausted the window, but the next record is still < q
    right = (result == hi) & (hi < n)
    if right.any():
        right &= data[np.minimum(hi, n - 1)] < queries
    violated = left | right
    if violated.any():
        result[violated] = np.searchsorted(
            data, queries[violated], side="left"
        )
    return result


def validated_search(data, queries, starts, widths, out):
    """Window search with §3.8 edge validation (exact results)."""
    n = len(data)
    lo = np.clip(starts, 0, n)
    hi = np.clip(starts + widths + 1, lo, n)
    out[:] = _validated(data, queries, lo, hi)
    return out


def validated_lower_bound_batch(
    data: np.ndarray,
    queries: np.ndarray,
    starts: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    """Batch window search with §3.8 edge validation (exact results).

    Each lane searches its window ``[starts[i], starts[i]+widths[i]]``;
    lanes pinned to a violated edge (the answer provably lies outside the
    window) fall back to a full-array lower bound.  For guaranteed
    R-mode windows over a monotone model the fallback never fires and
    this is a pure bounded search.
    """
    queries = np.asarray(queries)
    ensure_kernel_query_dtype(data, queries)
    starts = np.asarray(starts, dtype=np.int64)
    widths = np.asarray(widths, dtype=np.int64)
    out = np.empty(starts.shape, dtype=np.int64)
    return validated_search(data, queries, starts, widths, out)
