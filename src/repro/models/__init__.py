"""Learned CDF models: the substrate under every learned index (§2, §3).

All models implement :class:`~repro.models.base.CDFModel` and return the
unclamped predicted position ``N·F_θ(x)``; see ``base`` for the clamping
and partitioning helpers shared with the Shift-Table layer.
"""

from .base import (
    CDFModel,
    FunctionModel,
    partition_index,
    partition_index_batch,
    predicted_index,
    predicted_index_batch,
)
from .factory import (
    MODEL_FACTORIES,
    IndexDecision,
    build_corrected_index,
    make_model,
)
from .histogram import HistogramModel
from .interpolation import InterpolationModel
from .linear import LinearModel
from .pgm import PGMModel, shrinking_cone_segments
from .radix_spline import RadixSplineModel
from .rmi import RMIModel

__all__ = [
    "CDFModel",
    "FunctionModel",
    "InterpolationModel",
    "HistogramModel",
    "LinearModel",
    "RMIModel",
    "RadixSplineModel",
    "PGMModel",
    "shrinking_cone_segments",
    "MODEL_FACTORIES",
    "IndexDecision",
    "build_corrected_index",
    "make_model",
    "predicted_index",
    "predicted_index_batch",
    "partition_index",
    "partition_index_batch",
]
