"""Common interface for learned CDF models (paper §1, §3).

A model approximates the empirical CDF of the indexed keys.  Following
§3's notation, everything downstream works with the *unclamped predicted
position* ``N·F_θ(x)`` as a float:

* the predicted index is ``⌊N·F_θ(x)⌋`` clamped to ``[0, N-1]``
  (:func:`predicted_index`),
* a Shift-Table with ``M`` partitions buckets by ``⌊M·F_θ(x)⌋``, computed
  from the same float so the build and the query path agree bit-for-bit
  (:func:`partition_index`).

Scalar prediction takes a tracker and charges the model's parameter
accesses and arithmetic, because model-execution cache misses are half the
paper's story (§2.3: a big accurate model evicts itself from cache).
Batch prediction is pure numpy and is used for building layers and for
vectorised correctness checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker


def predicted_index(pos: float, n: int) -> int:
    """Clamp an unbounded predicted position to a valid index in [0, n-1]."""
    if pos <= 0.0:
        return 0
    p = int(pos)
    return p if p < n else n - 1


def partition_index(pos: float, n: int, m: int) -> int:
    """Partition number ``⌊M·F_θ(x)⌋`` derived from ``pos = N·F_θ(x)``.

    Computed as ``⌊pos · (m/n)⌋`` with the ratio rounded first, exactly
    like the vectorised build path, so the partition a key is assigned to
    at build time always matches the one computed at query time.
    """
    if pos <= 0.0:
        return 0
    j = int(pos) if m == n else int(pos * (m / n))
    return j if j < m else m - 1


def predicted_index_batch(pos: np.ndarray, n: int) -> np.ndarray:
    """Vectorised :func:`predicted_index`.

    Clips in float space *before* the int cast: a wildly out-of-domain
    query can predict beyond int64 range, and casting that is undefined
    (numpy warns and yields INT64_MIN).
    """
    return np.clip(pos, 0, n - 1).astype(np.int64)


def partition_index_batch(pos: np.ndarray, n: int, m: int) -> np.ndarray:
    """Vectorised :func:`partition_index` (same pre-cast clip)."""
    if m == n:
        scaled = pos
    else:
        scaled = pos * (m / n)
    return np.clip(scaled, 0, m - 1).astype(np.int64)


class CDFModel(ABC):
    """A learned approximation of ``x -> N·F(x)``.

    Attributes
    ----------
    name:
        Short identifier used in benchmark tables.
    num_keys:
        ``N``, the number of indexed records.
    is_monotone:
        Whether the model guarantees monotonically increasing predictions
        (§3.8's validity constraint).  Non-monotone models force the
        corrected index to validate windows at query time.
    """

    name: str = "model"
    is_monotone: bool = True

    def __init__(self, num_keys: int) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        self.num_keys = num_keys

    @abstractmethod
    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        """Unclamped predicted position ``N·F_θ(key)``, tracing accesses."""

    @abstractmethod
    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`predict_pos` (float64 array, no tracing)."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Total footprint of the model's parameters."""

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------
    def predict_index(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> int:
        """Clamped predicted index ``⌊N·F_θ(key)⌋``."""
        return predicted_index(self.predict_pos(key, tracker), self.num_keys)

    def predict_index_batch(self, keys: np.ndarray) -> np.ndarray:
        return predicted_index_batch(self.predict_pos_batch(keys), self.num_keys)

    def check_monotone(self, sample: np.ndarray) -> bool:
        """Empirically verify monotonicity on a sorted key sample."""
        pred = self.predict_pos_batch(np.sort(sample))
        return bool(np.all(np.diff(pred) >= 0))


class FunctionModel(CDFModel):
    """Adapter turning a plain callable into a :class:`CDFModel`.

    Used by tests and by the paper's worked examples (Figure 5 and
    Table 1 use ``F_θ(x) = x/1000`` over ``N = 100`` keys).
    """

    def __init__(
        self,
        fn,
        num_keys: int,
        name: str = "fn",
        is_monotone: bool = True,
        size: int = 16,
    ) -> None:
        super().__init__(num_keys)
        self._fn = fn
        self.name = name
        self.is_monotone = is_monotone
        self._size = size

    def predict_pos(
        self, key: int | float, tracker: NullTracker = NULL_TRACKER
    ) -> float:
        tracker.instr(4)
        return float(self._fn(key))

    def predict_pos_batch(self, keys: np.ndarray) -> np.ndarray:
        return np.asarray(
            [float(self._fn(k)) for k in np.asarray(keys)], dtype=np.float64  # repro: noqa[RPR501] — adapter over an arbitrary Python callable; nothing to vectorise
        )

    def size_bytes(self) -> int:
        return self._size
