"""Two-stage Recursive Model Index (Kraska et al., the paper's ``RMI``).

A root model maps a key to one of ``L`` second-stage ("leaf") linear
models; the chosen leaf predicts the absolute position.  Per-leaf signed
error bounds are recorded at build time, which is what lets SOSD's RMI run
a *bounded* binary search in the last mile — our baseline does the same.

Three root families, mirroring the architectures SOSD's tuner picks from:

* ``linear``  — least-squares line over (key, position), scaled to leaves;
* ``cubic``   — cubic polynomial in the normalised key.  Cubic roots are
  the paper's §3.8 example of a *non-monotone* model, and ours faithfully
  reports ``is_monotone = False``;
* ``radix``   — top bits of ``key - min`` select the leaf directly.

The leaf training is fully vectorised: keys are grouped by leaf, centred
per group (so 64-bit keys lose no precision), and the closed-form
least-squares solution is computed with segment reductions.
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker, alloc_region
from .base import CDFModel

_ROOTS = ("linear", "cubic", "radix")

#: Bytes per leaf entry: slope f8 + intercept f8 + err_lo i4 + err_hi i4.
_LEAF_ENTRY_BYTES = 24


class RMIModel(CDFModel):
    """Two-stage RMI with per-leaf error bounds."""

    def __init__(
        self,
        data: np.ndarray,
        num_leaves: int = 4096,
        root: str = "linear",
        cubic_sample: int = 65536,
    ) -> None:
        super().__init__(len(data))
        if root not in _ROOTS:
            raise ValueError(f"root must be one of {_ROOTS}, got {root!r}")
        if num_leaves <= 0:
            raise ValueError("num_leaves must be positive")
        self.name = f"RMI[{root},{num_leaves}]"
        self.root_kind = root
        self.num_leaves = int(num_leaves)
        self._min = float(data[0])
        self._max = float(data[-1])
        self._fit_root(data, cubic_sample)
        self._fit_leaves(data)
        # linear/radix roots keep key order, but leaf lines may still cross
        # at leaf boundaries; cubic roots are non-monotone outright (§3.8)
        self.is_monotone = False
        self._region = alloc_region(
            f"rmi_leaves_{id(self):x}", _LEAF_ENTRY_BYTES, self.num_leaves
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _fit_root(self, data: np.ndarray, cubic_sample: int) -> None:
        n, leaves = self.num_keys, self.num_leaves
        x = data.astype(np.float64)
        y = np.arange(n, dtype=np.float64)
        if self.root_kind == "linear":
            x_mean, y_mean = x.mean(), y.mean()
            var = ((x - x_mean) ** 2).sum()
            slope = float(((x - x_mean) * (y - y_mean)).sum() / var) if var else 0.0
            self._root_params = (slope * leaves / n, (y_mean - slope * x_mean) * leaves / n)
        elif self.root_kind == "cubic":
            span = self._max - self._min if self._max > self._min else 1.0
            step = max(n // cubic_sample, 1)
            t = (x[::step] - self._min) / span
            target = y[::step] * (leaves / n)
            self._root_params = tuple(np.polyfit(t, target, deg=3))
            self._span = span
        else:  # radix
            span = int(data[-1]) - int(data[0])
            shift = 0
            while (span >> shift) >= leaves:
                shift += 1
            self._root_params = (int(data[0]), shift)

    def _root_leaf_batch(self, keys: np.ndarray) -> np.ndarray:
        x = keys.astype(np.float64)  # repro: noqa[RPR103] — root fit is float by design; per-leaf error bounds are recorded
        if self.root_kind == "linear":
            a, b = self._root_params
            raw = a * x + b
        elif self.root_kind == "cubic":
            c3, c2, c1, c0 = self._root_params
            t = (x - self._min) / self._span
            raw = ((c3 * t + c2) * t + c1) * t + c0
        else:
            base, shift = self._root_params
            if keys.dtype.kind == "u":
                # stay in uint64: keys >= 2^63 would wrap through int64
                # and land in leaf 0 while the scalar path (exact Python
                # ints) computes the true leaf
                k = keys.astype(np.uint64)
                b = np.uint64(base)
                diff = np.where(k > b, k - b, np.uint64(0))
                return np.minimum(
                    diff >> np.uint64(shift), np.uint64(self.num_leaves - 1)
                ).astype(np.int64)
            raw = (
                (np.maximum(keys.astype(np.int64) - base, 0)) >> shift
            ).astype(np.float64)
        # clip in float space before the cast (see predicted_index_batch):
        # far out-of-domain keys overflow an int64 cast
        return np.clip(raw, 0, self.num_leaves - 1).astype(np.int64)

    def _root_leaf(self, key: float) -> int:
        if self.root_kind == "linear":
            a, b = self._root_params
            raw = a * key + b
        elif self.root_kind == "cubic":
            c3, c2, c1, c0 = self._root_params
            t = (key - self._min) / self._span  # repro: noqa[RPR102] — cubic root model maps keys to [0,1]; leaf correction bounds the error
            raw = ((c3 * t + c2) * t + c1) * t + c0
        else:
            base, shift = self._root_params
            raw = float(max(int(key) - base, 0) >> shift)
        if raw <= 0.0:
            return 0
        leaf = int(raw)
        return leaf if leaf < self.num_leaves else self.num_leaves - 1

    def _fit_leaves(self, data: np.ndarray) -> None:
        n, leaves = self.num_keys, self.num_leaves
        x = data.astype(np.float64)
        y = np.arange(n, dtype=np.float64)
        leaf_ids = self._root_leaf_batch(data)
        order = None
        if self.root_kind == "cubic":
            order = np.argsort(leaf_ids, kind="stable")
            leaf_ids = leaf_ids[order]
            x = x[order]
            y = y[order]
        # segment boundaries: keys of leaf j live in [starts[j], starts[j+1])
        starts = np.searchsorted(leaf_ids, np.arange(leaves + 1))
        counts = np.diff(starts)
        occupied = counts > 0
        # centre each segment at its first element for numerical stability
        first_of_leaf = np.repeat(
            np.where(occupied, x[np.minimum(starts[:-1], n - 1)], 0.0), counts
        )
        first_y = np.repeat(
            np.where(occupied, y[np.minimum(starts[:-1], n - 1)], 0.0), counts
        )
        xc = x - first_of_leaf
        yc = y - first_y
        # note: reduceat yields garbage for empty segments (it returns the
        # element at the segment start); every use below is masked by
        # ``occupied`` so that garbage never escapes
        sx = np.add.reduceat(xc, np.minimum(starts[:-1], n - 1))
        sy = np.add.reduceat(yc, np.minimum(starts[:-1], n - 1))
        sxx = np.add.reduceat(xc * xc, np.minimum(starts[:-1], n - 1))
        sxy = np.add.reduceat(xc * yc, np.minimum(starts[:-1], n - 1))
        cnt = counts.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = cnt * sxx - sx * sx
            slope = np.where(
                occupied & (denom > 0), (cnt * sxy - sx * sy) / denom, 0.0
            )
            icept_c = np.where(occupied, (sy - slope * sx) / np.maximum(cnt, 1), 0.0)
        x0 = np.where(occupied, x[np.minimum(starts[:-1], n - 1)], 0.0)
        y0 = np.where(occupied, y[np.minimum(starts[:-1], n - 1)], 0.0)
        slopes = slope
        intercepts = y0 + icept_c - slope * x0
        # empty leaves predict the boundary position of their key range
        boundary = starts[:-1].astype(np.float64)
        intercepts = np.where(occupied, intercepts, boundary)
        self._slopes = slopes
        self._intercepts = intercepts
        # per-leaf signed error bounds over the training keys
        pred = slopes[leaf_ids] * x + intercepts[leaf_ids]
        err = y - pred
        err_lo = np.full(leaves, np.inf)
        err_hi = np.full(leaves, -np.inf)
        np.minimum.at(err_lo, leaf_ids, err)
        np.maximum.at(err_hi, leaf_ids, err)
        err_lo = np.where(np.isfinite(err_lo), err_lo, 0.0)
        err_hi = np.where(np.isfinite(err_hi), err_hi, 0.0)
        self._err_lo = np.floor(err_lo).astype(np.int64)
        self._err_hi = np.ceil(err_hi).astype(np.int64)
        self.mean_abs_error = float(np.abs(err).mean())
        self.max_abs_error = float(np.abs(err).max()) if n else 0.0

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        tracker.instr(8 if self.root_kind != "cubic" else 12)
        leaf = self._root_leaf(float(key))
        tracker.touch(self._region, leaf)
        tracker.instr(4)
        return self._slopes[leaf] * float(key) + self._intercepts[leaf]

    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        leaf = self._root_leaf_batch(keys)
        return self._slopes[leaf] * keys.astype(np.float64) + self._intercepts[leaf]  # repro: noqa[RPR103] — prediction is float by design; per-leaf error bounds the search

    def error_bounds(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> tuple[int, int]:
        """Per-leaf signed error bounds (same cache line as the params)."""
        leaf = self._root_leaf(float(key))
        return int(self._err_lo[leaf]), int(self._err_hi[leaf])

    def error_bounds_batch(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`error_bounds` (no tracing)."""
        leaf = self._root_leaf_batch(keys)
        return self._err_lo[leaf], self._err_hi[leaf]

    def size_bytes(self) -> int:
        root = 32
        return root + self.num_leaves * _LEAF_ENTRY_BYTES
