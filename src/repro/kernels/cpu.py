"""Per-lane kernel source: the compiled predict→correct→search hot path.

Every function here is written in the numba ``nopython`` subset — plain
loops, scalar arithmetic, preallocated ``out`` arrays, no object-mode
fallbacks — and is compiled by :mod:`repro.kernels.numba_backend` with
``@njit(cache=True, nogil=True)`` when numba is importable.  The same
source also runs *interpreted* (each function is ordinary Python), which
is how the parity suite pins the kernel algorithms to the numpy fallback
even in environments without numba.

Parity contract
---------------
Each kernel replicates, expression for expression, the float arithmetic
of the numpy batch path it fuses (``models/*.predict_pos_batch``,
``ShiftTable.window_batch``, ``CompactShiftTable.correct_batch``,
``search/batch.py``), so positions are element-wise identical to both
the vectorised numpy pipeline and the scalar Algorithm-1 reference.
Narrow layer entries (``pack_layer_arrays`` stores int8/int16 deltas)
are widened through ``int(...)`` before rank arithmetic so interpreted
runs cannot overflow through NumPy's weak scalar promotion.

The §3.8 edge-validation fallback searches only the half-array the
violated edge proves the answer lies in — same result as the numpy
path's full ``searchsorted``, fewer probes.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# validated batch search (the last mile)
# ----------------------------------------------------------------------
def validated_search(data, queries, starts, widths, out):  # pragma: no cover
    """Batch window search with §3.8 edge validation (exact results).

    Mirrors ``validated_lower_bound_batch``: each lane searches
    ``[starts[i], starts[i]+widths[i]]`` (clipped), then lanes pinned to
    a violated window edge re-resolve against the half-array the edge
    check proves the answer lies in.
    """
    n = data.shape[0]
    for i in range(queries.shape[0]):
        q = queries[i]
        s = starts[i]
        lo = s
        if lo < 0:
            lo = 0
        elif lo > n:
            lo = n
        hi = s + widths[i] + 1
        if hi < lo:
            hi = lo
        elif hi > n:
            hi = n
        a = lo
        b = hi
        while a < b:
            mid = (a + b) >> 1
            if data[mid] < q:
                a = mid + 1
            else:
                b = mid
        r = a
        if r == lo and lo > 0 and data[lo - 1] >= q:
            # left edge violated: the answer is strictly left of the
            # window (and data[lo-1] >= q bounds it at lo-1)
            a = 0
            b = lo - 1
            while a < b:
                mid = (a + b) >> 1
                if data[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        elif r == hi and hi < n and data[hi] < q:
            # right edge violated: the answer is strictly past the window
            a = hi + 1
            b = n
            while a < b:
                mid = (a + b) >> 1
                if data[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        out[i] = r
    return out


# ----------------------------------------------------------------------
# model predict kernels (one per family; float math mirrors the model's
# own predict_pos_batch expression for expression)
# ----------------------------------------------------------------------
def predict_interpolation(keys, kmin, scale, out):  # pragma: no cover
    """IM: ``(key - min) * (N / span)``."""
    for i in range(keys.shape[0]):
        out[i] = (np.float64(keys[i]) - kmin) * scale
    return out


def predict_affine(keys, slope, intercept, out):  # pragma: no cover
    """Least-squares line: ``slope * key + intercept``."""
    for i in range(keys.shape[0]):
        out[i] = slope * np.float64(keys[i]) + intercept
    return out


def predict_rmi_linear(keys, a, b, slopes, intercepts, nleaves, leaf,
                       out):  # pragma: no cover - compiled
    """RMI with a linear root: root picks the leaf, leaf line predicts."""
    top = np.float64(nleaves - 1)
    for i in range(keys.shape[0]):
        x = np.float64(keys[i])
        raw = a * x + b
        if raw < 0.0:
            raw = 0.0
        elif raw > top:
            raw = top
        j = int(raw)
        leaf[i] = j
        out[i] = slopes[j] * x + intercepts[j]
    return out


def predict_rmi_cubic(keys, c3, c2, c1, c0, kmin, span, slopes, intercepts,
                      nleaves, leaf, out):  # pragma: no cover - compiled
    """RMI with the (non-monotone) cubic root over the normalised key."""
    top = np.float64(nleaves - 1)
    for i in range(keys.shape[0]):
        x = np.float64(keys[i])
        t = (x - kmin) / span
        raw = ((c3 * t + c2) * t + c1) * t + c0
        if raw < 0.0:
            raw = 0.0
        elif raw > top:
            raw = top
        j = int(raw)
        leaf[i] = j
        out[i] = slopes[j] * x + intercepts[j]
    return out


def predict_rmi_radix_signed(keys, base, shift, slopes, intercepts, nleaves,
                             leaf, out):  # pragma: no cover - compiled
    """RMI radix root over signed keys: ``(key - base) >> shift``."""
    top = np.float64(nleaves - 1)
    for i in range(keys.shape[0]):
        v = int(keys[i]) - base
        if v < 0:
            v = 0
        raw = np.float64(v >> shift)
        if raw < 0.0:
            raw = 0.0
        elif raw > top:
            raw = top
        j = int(raw)
        leaf[i] = j
        out[i] = slopes[j] * np.float64(keys[i]) + intercepts[j]
    return out


def predict_rmi_radix_unsigned(keys, base, shift, slopes, intercepts, nleaves,
                               leaf, out):  # pragma: no cover - compiled
    """RMI radix root over uint64 keys (no int64 wrap above 2^63)."""
    b = np.uint64(base)
    sh = np.uint64(shift)
    cap = np.uint64(nleaves - 1)
    zero = np.uint64(0)
    for i in range(keys.shape[0]):
        k = keys[i]
        if k > b:
            diff = k - b
        else:
            diff = zero
        j64 = diff >> sh
        if j64 > cap:
            j64 = cap
        j = int(j64)
        leaf[i] = j
        out[i] = slopes[j] * np.float64(k) + intercepts[j]
    return out


def predict_radix_spline(keys, sp_keys, sp_pos, out):  # pragma: no cover
    """RadixSpline: segment lower bound + clamped linear interpolation.

    Mirrors ``RadixSplineModel.predict_pos_batch`` (which resolves the
    segment with a full ``searchsorted`` over the spline points rather
    than the radix table — same answers).  Requires >= 2 spline points;
    the dispatcher falls back for the degenerate 1-point spline.
    """
    npts = sp_keys.shape[0]
    first = sp_keys[0]
    last = sp_keys[npts - 1]
    last_pos = sp_pos[npts - 1]
    for i in range(keys.shape[0]):
        x = np.float64(keys[i])
        if x <= first:
            out[i] = 0.0
            continue
        if x >= last:
            out[i] = last_pos
            continue
        a = 1
        b = npts - 1
        while a < b:
            mid = (a + b) >> 1
            if sp_keys[mid] < x:
                a = mid + 1
            else:
                b = mid
        x0 = sp_keys[a - 1]
        x1 = sp_keys[a]
        y0 = sp_pos[a - 1]
        y1 = sp_pos[a]
        if x1 > x0:
            frac = (x - x0) / (x1 - x0)
        else:
            frac = 1.0
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        out[i] = y0 + frac * (y1 - y0)
    return out


# ----------------------------------------------------------------------
# fused correct + search kernels (one pass over the prediction array)
# ----------------------------------------------------------------------
def fused_window_search(keys, queries, pred, deltas, widths, same, ratio, m,
                        out):  # pragma: no cover - compiled
    """R-mode: partition lookup + window + validated bounded search.

    ``same`` is ``M == N`` (partition id collapses to the predicted
    index); otherwise ``ratio`` carries the pre-rounded ``M / N`` the
    build path used, so query-time partitions match build-time ones.
    """
    n = keys.shape[0]
    ntop = np.float64(n - 1)
    mtop = np.float64(m - 1)
    for i in range(queries.shape[0]):
        q = queries[i]
        p = pred[i]
        pf = p
        if pf < 0.0:
            pf = 0.0
        elif pf > ntop:
            pf = ntop
        predi = int(pf)
        if same:
            j = predi
        else:
            sc = p * ratio
            if sc < 0.0:
                sc = 0.0
            elif sc > mtop:
                sc = mtop
            j = int(sc)
        s = predi + int(deltas[j])
        lo = s
        if lo < 0:
            lo = 0
        elif lo > n:
            lo = n
        hi = s + int(widths[j]) + 1
        if hi < lo:
            hi = lo
        elif hi > n:
            hi = n
        a = lo
        b = hi
        while a < b:
            mid = (a + b) >> 1
            if keys[mid] < q:
                a = mid + 1
            else:
                b = mid
        r = a
        if r == lo and lo > 0 and keys[lo - 1] >= q:
            a = 0
            b = lo - 1
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        elif r == hi and hi < n and keys[hi] < q:
            a = hi + 1
            b = n
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        out[i] = r
    return out


def fused_point_search(keys, queries, pred, drifts, same, ratio, m, radius,
                       out):  # pragma: no cover - compiled
    """S-mode: mean-drift correction, then ±radius validated search."""
    n = keys.shape[0]
    ntop = np.float64(n - 1)
    mtop = np.float64(m - 1)
    for i in range(queries.shape[0]):
        q = queries[i]
        p = pred[i]
        pf = p
        if pf < 0.0:
            pf = 0.0
        elif pf > ntop:
            pf = ntop
        predi = int(pf)
        if same:
            j = predi
        else:
            sc = p * ratio
            if sc < 0.0:
                sc = 0.0
            elif sc > mtop:
                sc = mtop
            j = int(sc)
        corrected = predi + int(drifts[j])
        if corrected < 0:
            corrected = 0
        elif corrected > n - 1:
            corrected = n - 1
        s = corrected - radius
        lo = s
        if lo < 0:
            lo = 0
        elif lo > n:
            lo = n
        hi = s + 2 * radius + 1
        if hi < lo:
            hi = lo
        elif hi > n:
            hi = n
        a = lo
        b = hi
        while a < b:
            mid = (a + b) >> 1
            if keys[mid] < q:
                a = mid + 1
            else:
                b = mid
        r = a
        if r == lo and lo > 0 and keys[lo - 1] >= q:
            a = 0
            b = lo - 1
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        elif r == hi and hi < n and keys[hi] < q:
            a = hi + 1
            b = n
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        out[i] = r
    return out


def fused_leaf_bounds_search(keys, queries, pred, leaf, err_lo, err_hi,
                             out):  # pragma: no cover - compiled
    """Bare RMI: the leaf's signed error bounds become the window."""
    n = keys.shape[0]
    ntop = np.float64(n - 1)
    for i in range(queries.shape[0]):
        q = queries[i]
        pf = pred[i]
        if pf < 0.0:
            pf = 0.0
        elif pf > ntop:
            pf = ntop
        predi = int(pf)
        j = leaf[i]
        e_lo = int(err_lo[j])
        s = predi + e_lo
        w = int(err_hi[j]) - e_lo
        lo = s
        if lo < 0:
            lo = 0
        elif lo > n:
            lo = n
        hi = s + w + 1
        if hi < lo:
            hi = lo
        elif hi > n:
            hi = n
        a = lo
        b = hi
        while a < b:
            mid = (a + b) >> 1
            if keys[mid] < q:
                a = mid + 1
            else:
                b = mid
        r = a
        if r == lo and lo > 0 and keys[lo - 1] >= q:
            a = 0
            b = lo - 1
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        elif r == hi and hi < n and keys[hi] < q:
            a = hi + 1
            b = n
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        out[i] = r
    return out


def fused_const_bounds_search(keys, queries, pred, e_lo, e_hi,
                              out):  # pragma: no cover - compiled
    """Bare RS/PGM: a constant ±ε window around the prediction."""
    n = keys.shape[0]
    ntop = np.float64(n - 1)
    w = e_hi - e_lo
    for i in range(queries.shape[0]):
        q = queries[i]
        pf = pred[i]
        if pf < 0.0:
            pf = 0.0
        elif pf > ntop:
            pf = ntop
        s = int(pf) + e_lo
        lo = s
        if lo < 0:
            lo = 0
        elif lo > n:
            lo = n
        hi = s + w + 1
        if hi < lo:
            hi = lo
        elif hi > n:
            hi = n
        a = lo
        b = hi
        while a < b:
            mid = (a + b) >> 1
            if keys[mid] < q:
                a = mid + 1
            else:
                b = mid
        r = a
        if r == lo and lo > 0 and keys[lo - 1] >= q:
            a = 0
            b = lo - 1
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        elif r == hi and hi < n and keys[hi] < q:
            a = hi + 1
            b = n
            while a < b:
                mid = (a + b) >> 1
                if keys[mid] < q:
                    a = mid + 1
                else:
                    b = mid
            r = a
        out[i] = r
    return out


#: Every kernel this module defines, in registration order (the numba
#: backend compiles exactly this list; the registry introspects it).
KERNEL_FUNCTIONS = (
    validated_search,
    predict_interpolation,
    predict_affine,
    predict_rmi_linear,
    predict_rmi_cubic,
    predict_rmi_radix_signed,
    predict_rmi_radix_unsigned,
    predict_radix_spline,
    fused_window_search,
    fused_point_search,
    fused_leaf_bounds_search,
    fused_const_bounds_search,
)
