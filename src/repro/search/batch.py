"""Vectorised bounded batch search — the engine's last-mile hot path.

The scalar query path (Algorithm 1) resolves one window at a time with
:func:`~repro.search.local.bounded_local_search`.  The batch engine
instead carries *arrays* of per-query windows; the one batch entry,
:func:`validated_lower_bound_batch`, dispatches them to whichever search
kernel backend is live in :data:`repro.kernels.REGISTRY`:

* the pure-numpy lane-parallel binary search (every numpy pass halves
  all still-open windows at once — ``O(log max_window)`` vectorised
  passes regardless of batch size, no per-query Python loop), or
* the numba per-lane compiled kernel (one branch-light loop over lanes,
  ``nogil`` so executor threads overlap), when numba is importable and
  the kernel mode allows it.

Both apply the §3.8 edge validation: lanes whose result is pinned to a
window edge that does not actually bracket the query (non-monotone
models, merged partitions, S-mode point estimates) are re-resolved
exactly, so both backends return element-wise identical answers to the
scalar path.

Dtype contract: these are kernel boundaries, so query dtypes are
**checked, not trusted** —
:func:`~repro.core.records.ensure_kernel_query_dtype` raises on any
combination numpy would resolve by promoting 64-bit keys to float64
(the silent-corruption class above 2**53).  Callers route raw input
through ``normalize_query_dtype``/``coerce_query_array`` first.
"""

from __future__ import annotations

import numpy as np

from ..core.records import ensure_kernel_query_dtype
from ..kernels import REGISTRY


def _kernel(name: str, queries: np.ndarray, windows: np.ndarray):
    """Live kernel for ``name``; per-lane backends need aligned 1-D lanes.

    The numpy implementations broadcast (scalar queries against window
    arrays and vice versa, as the original lane-parallel code did); the
    compiled per-lane loops index every lane, so shape-mismatched calls
    stay on the numpy path.
    """
    entry = REGISTRY.entry(name)
    impl_name, impl = entry.resolve(REGISTRY.effective_mode() == "numba")
    if impl_name == "numba" and (
        queries.ndim != 1 or queries.shape != windows.shape
    ):
        return entry.numpy_impl
    return impl


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
    return _kernel("search.validated", queries, starts)(
        data, queries, starts, widths, out
    )
