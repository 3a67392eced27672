"""The paper's primary contribution: Shift-Table and its surroundings."""

from .analyze import LayerReport, analyze_layer, format_report
from .compact import CompactShiftTable
from .corrected_index import CorrectedIndex, validated_window_search
from .cost_model import (
    DEFAULT_LAYER_LOOKUP_NS,
    LatencyCurve,
    expected_error,
    latency_with_layer,
    latency_without_layer,
    measure_latency_curve,
    should_enable_layer,
)
from .errors import error_stats, log2_error, signed_drift
from .fenwick import FenwickTree, UpdatableCorrectedIndex
from .gapped import GappedLearnedIndex
from .range_query import LookupTrace, RangeQueryEngine
from .records import SortedData
from .serialize import (
    SERIALIZABLE_MODELS,
    layer_from_state,
    layer_to_state,
    load_layer,
    load_model,
    model_from_state,
    model_to_state,
    save_layer,
    save_model,
)
from .shift_table import ShiftTable, pack_layer_arrays
from .tuner import (
    TuningReport,
    choose_compact_layer,
    tune,
    tune_radix_spline,
    tune_rmi,
)

__all__ = [
    "ShiftTable",
    "pack_layer_arrays",
    "CompactShiftTable",
    "CorrectedIndex",
    "validated_window_search",
    "SortedData",
    "LatencyCurve",
    "measure_latency_curve",
    "expected_error",
    "latency_with_layer",
    "latency_without_layer",
    "should_enable_layer",
    "DEFAULT_LAYER_LOOKUP_NS",
    "signed_drift",
    "error_stats",
    "log2_error",
    "FenwickTree",
    "UpdatableCorrectedIndex",
    "GappedLearnedIndex",
    "tune",
    "tune_rmi",
    "tune_radix_spline",
    "choose_compact_layer",
    "TuningReport",
    "RangeQueryEngine",
    "analyze_layer",
    "format_report",
    "LayerReport",
    "LookupTrace",
    "save_layer",
    "load_layer",
    "save_model",
    "load_model",
    "SERIALIZABLE_MODELS",
    "model_to_state",
    "model_from_state",
    "layer_to_state",
    "layer_from_state",
]
