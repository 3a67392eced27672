"""Pure-numpy search kernel (the guaranteed fallback).

:func:`validated_search` mirrors the :mod:`repro.kernels.cpu` search
kernel with the *same signature* (preallocated int64 ``out``), so the
registry can swap backends without callers caring which one is live,
and the parity suite can run the interpreted per-lane kernel against
these array passes input-for-input.

These are the engine's original lane-parallel implementations (formerly
in :mod:`repro.search.batch`): every numpy pass halves all still-open
windows at once, so a batch resolves in ``O(log max_window)`` vectorised
passes regardless of batch size.  Predict and correct have no numpy
kernel here: the numpy pipeline runs them on the model and layer objects
(``model.predict_pos_batch`` → ``layer.window_batch``/``correct_batch``)
and ends in :func:`validated_search`.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
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
