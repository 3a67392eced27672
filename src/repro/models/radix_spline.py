"""RadixSpline (Kipf et al.), the paper's ``RS`` baseline.

A single-pass learned index: a greedy error-bounded linear spline over the
CDF plus a radix table that maps the top ``r`` bits of a key to the range
of spline points it can fall into.

Lookup: radix-table probe -> binary search among the candidate spline
points -> linear interpolation inside the segment -> the prediction is
within ``±ε`` of the truth, enabling a bounded last-mile search.  The
model is monotone by construction (§3.8 notes RS "always produces a valid
(increasing) CDF"), which is what makes ``RS + Shift-Table`` legal.

The spline construction is the greedy corridor algorithm: from the current
anchor, keep the intersection of the error corridors ``[y-ε, y+ε]`` seen
so far; when a point's corridor no longer intersects, close the segment at
the previous point and restart.  We evaluate the corridor with chunked
numpy scans so the build stays O(N) in vector operations.
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker, alloc_region
from .base import CDFModel

#: Spline point entry: key f8 + position f8.
_POINT_BYTES = 16
#: Radix table entry: uint32 spline-point offset.
_RADIX_ENTRY_BYTES = 4

_CHUNK = 4096


def _clamped_knot_y(
    anchor_y: float, chord: float, lower: float, upper: float, dx: float
) -> float:
    """Knot height via the corridor-clamped chord slope.

    Any slope inside the accumulated corridor keeps *every* covered point
    within ±ε; the raw chord through the endpoint need not be inside it,
    so interpolating through the raw point would silently break the
    guarantee.  Clamping the chord into ``[lower, upper]`` restores it
    (the clamped slope still satisfies the endpoint's own constraint).
    The floor is additionally raised to 0 — feasible whenever the corridor
    admits a non-positive slope, since its upper bound is always positive
    — so knot heights never decrease and the spline stays monotone.
    """
    slope = min(max(chord, lower, 0.0), upper)
    if not np.isfinite(slope):
        slope = max(chord, 0.0)
    return anchor_y + slope * dx


def _greedy_spline(
    keys: np.ndarray, positions: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy ε-corridor spline knots over (keys, positions).

    Returns ``(knot_keys, knot_ys)``.  Guarantee: linear interpolation
    between consecutive knots predicts every training row within ±ε —
    except rows whose key collides with its neighbours in float64 (a
    vertical run no function of the key can fit), where the error is
    bounded by ε plus the run length.
    """
    n = len(keys)
    sp_x = [float(keys[0])]
    sp_y = [float(positions[0])]
    anchor = 0
    ax = float(keys[0])
    ay = float(positions[0])
    upper = np.inf
    lower = -np.inf
    i = 1
    # adaptive lookahead: start small after each restart and grow while
    # the segment keeps extending, so short segments (rough data, small ε)
    # do not pay for a full-size chunk scan per restart
    lookahead = 64
    while i < n:
        hi = min(i + lookahead, n)
        dx = keys[i:hi] - ax
        dy = positions[i:hi] - ay
        # slope corridor contributed by each point (dx may be 0 for keys
        # that collide in float64: unconstrained unless dy exceeds ε)
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(dx > 0, (dy + epsilon) / dx, np.inf)
            lo = np.where(dx > 0, (dy - epsilon) / dx, -np.inf)
        run_up = np.minimum.accumulate(np.minimum(up, upper))
        run_lo = np.maximum.accumulate(np.maximum(lo, lower))
        dup_bad = (dx == 0) & (np.abs(dy) > epsilon)
        bad = (run_up < run_lo) | dup_bad
        if bad.any():
            k = int(np.argmax(bad))
            j = i + k  # first violating row
            if j == anchor + 1:
                # even a single row cannot be covered (collapsed run):
                # emit the row itself and restart there
                ax = float(keys[j])
                ay = float(positions[j])
                anchor = j
            else:
                if k == 0:
                    u_j, l_j = upper, lower
                else:
                    u_j, l_j = float(run_up[k - 1]), float(run_lo[k - 1])
                dxj = float(keys[j - 1]) - ax
                if dxj > 0:
                    chord = (float(positions[j - 1]) - ay) / dxj  # repro: noqa[RPR102] — chord slope is float by design; the eps-corridor bounds the error
                    ay = _clamped_knot_y(ay, chord, l_j, u_j, dxj)
                # dxj == 0: keep the anchor height (all rows within ε of it)
                ax = float(keys[j - 1])
                anchor = j - 1
            sp_x.append(ax)
            sp_y.append(ay)
            upper = np.inf
            lower = -np.inf
            i = anchor + 1
            lookahead = 64
        else:
            upper = float(run_up[-1])
            lower = float(run_lo[-1])
            i = hi
            lookahead = min(lookahead * 4, _CHUNK)
    # final knot at the last row, corridor-clamped like any other
    if float(keys[n - 1]) > sp_x[-1]:
        dxj = float(keys[n - 1]) - ax
        chord = (float(positions[n - 1]) - ay) / dxj  # repro: noqa[RPR102] — chord slope is float by design; the eps-corridor bounds the error
        sp_x.append(float(keys[n - 1]))
        sp_y.append(_clamped_knot_y(ay, chord, lower, upper, dxj))
    return np.asarray(sp_x), np.asarray(sp_y)


class RadixSplineModel(CDFModel):
    """Greedy ε-bounded spline with a radix lookup table."""

    is_monotone = True

    def __init__(
        self, data: np.ndarray, epsilon: int = 32, radix_bits: int = 18
    ) -> None:
        super().__init__(len(data))
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if not (1 <= radix_bits <= 30):
            raise ValueError("radix_bits must be in [1, 30]")
        self.name = f"RS[eps={epsilon},r={radix_bits}]"
        self.epsilon = int(epsilon)
        self.radix_bits = int(radix_bits)

        # train on distinct keys with lower-bound positions: a duplicate
        # run is a vertical step no function of the key can fit within ±ε,
        # but its lower-bound position is a single point (§3.2 semantics)
        unique_keys, first_idx = np.unique(data, return_index=True)
        keys = unique_keys.astype(np.float64)  # repro: noqa[RPR103] — spline fit is float by design; the eps-corridor bounds the error
        positions = first_idx.astype(np.float64)
        self._sp_keys, self._sp_pos = _greedy_spline(
            keys, positions, float(epsilon)
        )

        # radix table over (key - min) >> shift
        self._key_min = int(data[0])
        span = int(data[-1]) - self._key_min
        shift = 0
        while (span >> shift) >= (1 << radix_bits):
            shift += 1
        self._shift = shift
        num_prefixes = (span >> shift) + 2
        prefixes = (
            (self._sp_keys.astype(np.uint64) - np.uint64(self._key_min))
            >> np.uint64(shift)
        ).astype(np.int64)
        # table[p] = first spline point whose prefix >= p
        self._table = np.searchsorted(prefixes, np.arange(num_prefixes + 1)).astype(
            np.int64
        )
        self._table_region = alloc_region(
            f"rs_radix_{id(self):x}", _RADIX_ENTRY_BYTES, len(self._table)
        )
        self._points_region = alloc_region(
            f"rs_points_{id(self):x}", _POINT_BYTES, len(self._sp_keys)
        )

    @property
    def num_spline_points(self) -> int:
        return len(self._sp_keys)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _segment_bounds(self, key: float) -> tuple[int, int]:
        """Radix-table probe: candidate spline-point range for ``key``."""
        p = (int(key) - self._key_min) >> self._shift
        p = min(max(p, 0), len(self._table) - 2)
        return int(self._table[p]), int(self._table[p + 1])

    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        k = float(key)
        if k <= self._sp_keys[0] or self.num_spline_points == 1:
            return 0.0 if k <= self._sp_keys[0] else float(self._sp_pos[-1])
        if k >= self._sp_keys[-1]:
            return float(self._sp_pos[-1])
        p = (int(key) - self._key_min) >> self._shift
        p = min(max(p, 0), len(self._table) - 2)
        tracker.touch(self._table_region, p)
        tracker.instr(6)
        lo, hi = int(self._table[p]), int(self._table[p + 1])
        lo = max(lo, 1)
        hi = min(max(hi, lo), self.num_spline_points - 1)
        # binary search for the segment whose right end is the first
        # spline key >= k, probing the spline-point array
        while lo < hi:
            mid = (lo + hi) >> 1
            tracker.touch(self._points_region, mid)
            tracker.instr(5)
            if self._sp_keys[mid] < k:
                lo = mid + 1
            else:
                hi = mid
        right = lo
        tracker.touch(self._points_region, right - 1)
        tracker.touch(self._points_region, right)
        tracker.instr(8)
        x0, x1 = self._sp_keys[right - 1], self._sp_keys[right]
        y0, y1 = self._sp_pos[right - 1], self._sp_pos[right]
        if x1 <= x0:
            return float(y1)
        return float(y0 + (k - x0) / (x1 - x0) * (y1 - y0))

    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        k = keys.astype(np.float64)  # repro: noqa[RPR103] — prediction is float by design; the eps window bounds the error
        if self.num_spline_points == 1:
            return np.where(k <= self._sp_keys[0], 0.0, float(self._sp_pos[-1]))
        right = np.searchsorted(self._sp_keys, k, side="left")
        right = np.clip(right, 1, self.num_spline_points - 1)
        x0 = self._sp_keys[right - 1]
        x1 = self._sp_keys[right]
        y0 = self._sp_pos[right - 1]
        y1 = self._sp_pos[right]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(x1 > x0, (k - x0) / (x1 - x0), 1.0)
        pred = y0 + np.clip(frac, 0.0, 1.0) * (y1 - y0)
        pred = np.where(k <= self._sp_keys[0], 0.0, pred)
        pred = np.where(k >= self._sp_keys[-1], self._sp_pos[-1], pred)
        return pred

    def error_bounds(self) -> tuple[int, int]:
        """Guaranteed signed error window (±ε by construction)."""
        return -self.epsilon, self.epsilon

    def size_bytes(self) -> int:
        return (
            len(self._table) * _RADIX_ENTRY_BYTES
            + self.num_spline_points * _POINT_BYTES
        )
