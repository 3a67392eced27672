"""The dummy interpolation model ``IM`` (paper §4, "On-the-fly search").

``F_θ(x) = (x - minVal) / (maxVal - minVal)`` — two parameters, no
training.  The paper deliberately pairs this model with Shift-Table "to
purely delegate the burden of data modelling to the correction layers"
(§4.1), and its headline result is that IM+Shift-Table beats tuned RMI on
real-world data.
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker
from .base import CDFModel

#: Instructions per prediction: subtract, multiply, convert.
_INSTR_PER_PREDICT = 4


class InterpolationModel(CDFModel):
    """Min/max linear interpolation over the key domain."""

    name = "IM"
    is_monotone = True

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(len(data))
        self._min = float(data[0])
        self._max = float(data[-1])
        span = self._max - self._min
        # N / span, precomputed; degenerate (all-equal) data maps to pos 0
        self._scale = self.num_keys / span if span > 0 else 0.0

    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        tracker.instr(_INSTR_PER_PREDICT)
        return (float(key) - self._min) * self._scale

    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        return (keys.astype(np.float64) - self._min) * self._scale  # repro: noqa[RPR103] — model domain is float64 by design; correction layer bounds the error

    def size_bytes(self) -> int:
        return 16  # min and scale, two doubles — lives in registers
