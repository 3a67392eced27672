"""On-the-fly search algorithms over sorted arrays (paper §2.1, §5).

All functions share a signature shape ``fn(data, region, tracker, q, ...)``
and return *lower-bound* positions: the index of the first element that is
``>= q``, or ``len(data)`` when no such element exists.
"""

from .batch import validated_lower_bound_batch
from .binary import lower_bound, lower_bound_batch
from .exponential import exponential_lower_bound
from .interpolation import interpolation_lower_bound
from .linear import linear_around, linear_lower_bound
from .local import (
    LINEAR_TO_BINARY_THRESHOLD,
    bounded_local_search,
    unbounded_local_search,
)
from .tip import tip_lower_bound

__all__ = [
    "lower_bound",
    "lower_bound_batch",
    "validated_lower_bound_batch",
    "exponential_lower_bound",
    "interpolation_lower_bound",
    "linear_around",
    "linear_lower_bound",
    "bounded_local_search",
    "unbounded_local_search",
    "tip_lower_bound",
    "LINEAR_TO_BINARY_THRESHOLD",
]
