"""Least-squares single-line model (Figure 6's "simple model").

One straight line fitted to the (key, position) pairs by least squares.
Like IM it cannot capture any micro-structure; unlike IM it minimises the
global squared error, which is the configuration Figure 6 uses to show the
Shift-Table layer absorbing a 28-million-key average error.
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker
from .base import CDFModel

_INSTR_PER_PREDICT = 4


class LinearModel(CDFModel):
    """``pos ≈ slope · key + intercept`` fitted by least squares."""

    name = "Linear"

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(len(data))
        x = data.astype(np.float64)
        y = np.arange(len(data), dtype=np.float64)
        # closed-form simple linear regression, centred for stability
        x_mean = x.mean()
        y_mean = y.mean()
        var = ((x - x_mean) ** 2).sum()
        if var > 0:
            self.slope = float(((x - x_mean) * (y - y_mean)).sum() / var)
        else:
            self.slope = 0.0
        self.intercept = float(y_mean - self.slope * x_mean)
        # a negative slope would violate the §3.8 validity constraint; it
        # can only arise on degenerate (constant-key) data where var == 0
        self.is_monotone = self.slope >= 0.0

    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        tracker.instr(_INSTR_PER_PREDICT)
        return self.slope * float(key) + self.intercept

    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        return self.slope * keys.astype(np.float64) + self.intercept  # repro: noqa[RPR103] — least-squares fit is float by design; correction layer bounds the error

    def size_bytes(self) -> int:
        return 16
