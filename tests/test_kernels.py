"""Batch-pipeline dtype-guard and parity suite.

The batch pipeline's contract is *bit-identity*: for every model family
× correction layer, the numpy pipeline (``predict_pos_batch`` →
``window_batch``/``correct_batch`` → the lane-parallel validated search)
and the scalar Algorithm-1 loop must return element-wise identical
positions — including the §3.8 edge-validation fallbacks on adversarial
windows, where ``np.searchsorted`` is the oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData
from repro.core.shift_table import ShiftTable
from repro.engine import BatchExecutor
from repro.engine.sharded import ShardedIndex
from repro.hardware.hierarchy import MemoryHierarchy
from repro.hardware.machine import MachineSpec
from repro.hardware.tracker import SimTracker
from repro.kernels import REGISTRY, numba_available
from repro.models.interpolation import InterpolationModel
from repro.models.linear import LinearModel
from repro.models.radix_spline import RadixSplineModel
from repro.models.rmi import RMIModel
from repro.search.batch import validated_lower_bound_batch, validated_search

from helpers import queries_for, sorted_uint_arrays


def scalar_oracle(index: CorrectedIndex, queries: np.ndarray) -> np.ndarray:
    """The per-query Algorithm-1 loop — the parity ground truth."""
    return np.asarray([index.lookup(q) for q in queries], dtype=np.int64)


# ----------------------------------------------------------------------
# dtype guard at the kernel boundary (the old noqa[RPR101] site)
# ----------------------------------------------------------------------
def test_kernel_boundary_rejects_int64_queries_against_uint64_keys():
    data = np.arange(16, dtype=np.uint64)
    queries = np.array([-3, 5], dtype=np.int64)  # promotes to float64
    lo = np.zeros(2, dtype=np.int64)
    hi = np.full(2, 16, dtype=np.int64)
    with pytest.raises(TypeError, match="promote"):
        validated_lower_bound_batch(data, queries, lo, hi)


def test_kernel_boundary_rejects_float_queries_against_wide_keys():
    data = np.arange(16, dtype=np.int64)
    queries = np.array([1.5, 2.5])
    with pytest.raises(TypeError, match="float queries"):
        validated_lower_bound_batch(
            data, queries, np.zeros(2, np.int64), np.full(2, 16, np.int64)
        )


def test_kernel_boundary_allows_exact_combinations():
    # same-kind and narrow-key combinations cannot corrupt: no raise
    data64 = np.arange(16, dtype=np.uint64)
    out = validated_lower_bound_batch(
        data64, np.array([3, 9], dtype=np.uint64),
        np.zeros(2, np.int64), np.full(2, 15, np.int64),
    )
    assert out.tolist() == [3, 9]
    data32 = np.arange(16, dtype=np.int32)  # exact in float64: exempt
    out = validated_lower_bound_batch(
        data32, np.array([3.5]), np.zeros(1, np.int64),
        np.full(1, 16, np.int64),
    )
    assert out.tolist() == [4]


def test_regression_uint64_above_2_53_with_negative_int64_queries():
    """The laundering bug the guard replaces: one batch mixing negative
    int64 queries with uint64 keys above 2**53 must stay exact — under a
    float64 promotion all 65 keys collapse onto at most two values."""
    base = 1 << 53
    keys = np.arange(base, base + 65, dtype=np.uint64)
    index = CorrectedIndex(
        SortedData(keys), InterpolationModel(keys),
        ShiftTable.build(keys, InterpolationModel(keys)),
    )
    queries = np.concatenate([
        np.array([-9, -1, 0], dtype=np.int64),
        np.arange(base, base + 65, dtype=np.int64),
    ])
    expected = np.concatenate([
        np.zeros(3, dtype=np.int64), np.arange(65, dtype=np.int64)
    ])
    got = index.lookup_batch_vectorized(queries)
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(scalar_oracle(index, queries), expected)


def test_float_queries_coerced_exactly_at_index_boundary():
    # sanctioned path: float queries against uint64 keys are converted
    # exactly (q < k iff ceil(q) <= k) before any kernel comparison
    keys = np.arange(100, 160, dtype=np.uint64)
    index = CorrectedIndex(SortedData(keys), InterpolationModel(keys))
    queries = np.array([99.5, 100.0, 100.5, 159.5, 160.5])
    got = index.lookup_batch_vectorized(queries)
    assert got.tolist() == [0, 0, 1, 60, 60]


# ----------------------------------------------------------------------
# batch tracing parity (hardware tracker satellite)
# ----------------------------------------------------------------------
def _traced_counts(executor, queries, hierarchy):
    hierarchy.reset_stats()
    out = executor.lookup_batch(queries)
    s = hierarchy.stats
    return out, (s.accesses, s.instructions, s.scan_lines)


def test_scalar_and_batch_paths_charge_identical_probe_counts():
    rng = np.random.default_rng(11)
    keys = np.sort(rng.integers(0, 1 << 40, 4000).astype(np.uint64))
    index = CorrectedIndex(
        SortedData(keys), InterpolationModel(keys),
        ShiftTable.build(keys, InterpolationModel(keys)),
    )
    queries = queries_for(keys, rng_seed=7)
    hierarchy = MemoryHierarchy(MachineSpec())
    tracker = SimTracker(hierarchy)

    scalar_ex = BatchExecutor(index, mode="scalar", tracker=tracker)
    out_scalar, counts_scalar = _traced_counts(scalar_ex, queries, hierarchy)
    vec_ex = BatchExecutor(index, mode="vectorized", tracker=tracker)
    out_vec, counts_vec = _traced_counts(vec_ex, queries, hierarchy)

    np.testing.assert_array_equal(out_scalar, out_vec)
    assert counts_scalar == counts_vec
    assert counts_scalar[0] > 0  # the tracker actually charged probes


def test_traced_batch_matches_untraced_results_on_sharded_index():
    rng = np.random.default_rng(3)
    keys = np.sort(rng.integers(0, 1 << 32, 6000).astype(np.uint64))
    sharded = ShardedIndex.build(keys, num_shards=4)
    queries = queries_for(keys, rng_seed=5)
    hierarchy = MemoryHierarchy(MachineSpec())
    traced = BatchExecutor(sharded, tracker=SimTracker(hierarchy))
    plain = BatchExecutor(sharded)
    np.testing.assert_array_equal(
        traced.lookup_batch(queries), plain.lookup_batch(queries)
    )
    assert hierarchy.stats.accesses > 0


def test_untraced_executor_charges_nothing():
    keys = np.arange(100, dtype=np.uint64)
    index = CorrectedIndex(SortedData(keys), InterpolationModel(keys))
    hierarchy = MemoryHierarchy(MachineSpec())
    executor = BatchExecutor(index)  # no tracker installed
    executor.lookup_batch(np.array([5, 50], dtype=np.uint64))
    assert hierarchy.stats.accesses == 0


# ----------------------------------------------------------------------
# oracle parity: the numpy pipeline vs the scalar Algorithm-1 loop
# ----------------------------------------------------------------------
def _make_index(keys, model_name, layer_name):
    builders = {
        "IM": lambda: InterpolationModel(keys),
        "linear": lambda: LinearModel(keys),
        "rmi-linear": lambda: RMIModel(keys, num_leaves=32, root="linear"),
        "rmi-cubic": lambda: RMIModel(keys, num_leaves=32, root="cubic"),
        "rmi-radix": lambda: RMIModel(keys, num_leaves=32, root="radix"),
        "rs": lambda: RadixSplineModel(keys, epsilon=4, radix_bits=8),
    }
    model = builders[model_name]()
    if layer_name == "R":
        layer = ShiftTable.build(keys, builders[model_name]())
    elif layer_name == "R-coarse":
        layer = ShiftTable.build(
            keys, builders[model_name](),
            num_partitions=max(len(keys) // 4, 1),
        )
    elif layer_name == "S":
        layer = CompactShiftTable.build(
            keys, builders[model_name](),
            num_partitions=max(len(keys) // 2, 1),
        )
    else:
        layer = None
    return CorrectedIndex(SortedData(keys), model, layer)


MODEL_NAMES = ("IM", "linear", "rmi-linear", "rmi-cubic", "rmi-radix", "rs")
LAYER_NAMES = ("none", "R", "R-coarse", "S")


@pytest.mark.parametrize("model_name", MODEL_NAMES)
@pytest.mark.parametrize("layer_name", LAYER_NAMES)
def test_kernel_parity_fixed_dataset(model_name, layer_name):
    rng = np.random.default_rng(19)
    keys = np.sort(
        np.concatenate([
            rng.integers(0, 1 << 45, 1500).astype(np.uint64),
            np.full(120, 1 << 44, dtype=np.uint64),  # duplicate run
        ])
    )
    index = _make_index(keys, model_name, layer_name)
    queries = queries_for(keys, rng_seed=23)
    np.testing.assert_array_equal(
        index.lookup_batch_vectorized(queries), scalar_oracle(index, queries)
    )


@settings(max_examples=25, deadline=None)
@given(keys=sorted_uint_arrays(min_size=2, max_size=200), seed=st.integers(0, 2**16))
def test_kernel_parity_property_interpolation_window(keys, seed):
    index = _make_index(keys, "IM", "R")
    queries = queries_for(keys, rng_seed=seed, count=32)
    np.testing.assert_array_equal(
        index.lookup_batch_vectorized(queries), scalar_oracle(index, queries)
    )


@settings(max_examples=15, deadline=None)
@given(keys=sorted_uint_arrays(min_size=4, max_size=150), seed=st.integers(0, 2**16))
def test_kernel_parity_property_rmi_point_correction(keys, seed):
    # constant-key data breaks numpy's polyfit (pre-existing cubic-RMI
    # build limitation, unrelated to the pipeline under test)
    assume(keys[0] != keys[-1])
    index = _make_index(keys, "rmi-cubic", "S")
    queries = queries_for(keys, rng_seed=seed, count=32)
    np.testing.assert_array_equal(
        index.lookup_batch_vectorized(queries), scalar_oracle(index, queries)
    )


# ----------------------------------------------------------------------
# adversarial windows: §3.8 validation must recover exact answers
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    keys=sorted_uint_arrays(min_size=1, max_size=120),
    seed=st.integers(0, 2**16),
)
def test_validated_search_exact_under_arbitrary_windows(keys, seed):
    """Whatever garbage windows arrive — empty, width-0, inverted,
    fully out of range — edge validation must restore np.searchsorted."""
    rng = np.random.default_rng(seed)
    n = len(keys)
    queries = queries_for(keys, rng_seed=seed, count=24)
    starts = rng.integers(-n - 3, 2 * n + 3, size=len(queries))
    widths = rng.integers(0, n + 3, size=len(queries))
    truth = np.searchsorted(keys, queries, side="left").astype(np.int64)
    public = validated_lower_bound_batch(keys, queries, starts, widths)
    np.testing.assert_array_equal(public, truth)
    out = np.empty(len(queries), dtype=np.int64)
    validated_search(
        keys, queries, starts.astype(np.int64), widths.astype(np.int64), out
    )
    np.testing.assert_array_equal(out, truth)


def _checked_entry(data, queries, starts, widths, out):
    out[:] = validated_lower_bound_batch(data, queries, starts, widths)
    return out


@pytest.mark.parametrize(
    "search", [validated_search, _checked_entry], ids=["numpy", "checked"]
)
def test_validated_search_adversarial_fixed_windows(search):
    keys = np.array([5, 5, 5, 9, 9, 14, 20, 20], dtype=np.uint64)
    queries = np.array([0, 5, 6, 9, 14, 15, 20, 21], dtype=np.uint64)
    cases = [
        np.zeros(len(queries), dtype=np.int64),              # width-0 at 0
        np.full(len(queries), len(keys), dtype=np.int64),    # beyond end
        np.full(len(queries), -50, dtype=np.int64),          # far negative
        np.arange(len(queries), dtype=np.int64) - 4,         # mixed
    ]
    truth = np.searchsorted(keys, queries, side="left").astype(np.int64)
    for starts in cases:
        for width in (0, 1, 3):
            out = np.empty(len(queries), dtype=np.int64)
            search(
                keys, queries, starts,
                np.full(len(queries), width, dtype=np.int64), out,
            )
            np.testing.assert_array_equal(out, truth)


@settings(max_examples=30, deadline=None)
@given(
    keys=sorted_uint_arrays(min_size=1, max_size=100),
    seed=st.integers(0, 2**16),
)
def test_bounded_search_backends_agree(keys, seed):
    """The checked batch entry and the raw search it wraps (windowed +
    §3.8 validation) answer exactly, whatever the windows — clipped,
    empty, misplaced."""
    rng = np.random.default_rng(seed)
    n = len(keys)
    queries = queries_for(keys, rng_seed=seed, count=16)
    starts = rng.integers(-2, n + 2, size=len(queries))
    widths = rng.integers(0, n + 1, size=len(queries))
    ref = validated_lower_bound_batch(keys, queries, starts, widths)
    out = np.empty(len(queries), dtype=np.int64)
    validated_search(
        keys, queries, starts.astype(np.int64), widths.astype(np.int64), out
    )
    np.testing.assert_array_equal(out, ref)
    truth = np.searchsorted(keys, queries, side="left")
    np.testing.assert_array_equal(ref, truth)


def test_empty_batch_and_empty_window_edges():
    keys = np.arange(10, dtype=np.uint64)
    empty_q = np.empty(0, dtype=np.uint64)
    assert validated_lower_bound_batch(
        keys, empty_q, np.empty(0, np.int64), np.empty(0, np.int64)
    ).size == 0
    # an empty window past the data fails its left-edge check, so the
    # lane re-resolves to the exact lower bound
    out = validated_lower_bound_batch(
        keys, np.array([3], dtype=np.uint64),
        np.array([10], dtype=np.int64), np.array([-1], dtype=np.int64),
    )
    assert out.tolist() == [3]


# ----------------------------------------------------------------------
# engine-level parity across backends × executor modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["static", "gapped", "fenwick"])
def test_executor_parity_across_backends_and_modes(backend):
    rng = np.random.default_rng(31)
    keys = np.sort(rng.integers(0, 1 << 45, 5000).astype(np.uint64))
    sharded = ShardedIndex.build(keys, num_shards=3, backend=backend)
    queries = queries_for(keys, rng_seed=37)
    truth = np.searchsorted(keys, queries, side="left")
    for mode in ("vectorized", "scalar"):
        np.testing.assert_array_equal(
            BatchExecutor(sharded, mode=mode).lookup_batch(queries), truth,
            err_msg=f"{backend}/{mode}",
        )


# ----------------------------------------------------------------------
# the names the benchmark ladder imports from repro.kernels
# ----------------------------------------------------------------------
def test_ladder_import_contract():
    keys = np.array([5, 5, 9, 14, 20, 20, 31], dtype=np.uint64)
    queries = np.array([0, 5, 6, 14, 21, 31, 40], dtype=np.uint64)
    starts = np.array([0, 4, -3, 3, 6, 0, 2], dtype=np.int64)
    widths = np.array([7, 0, 2, 1, 0, 3, 9], dtype=np.int64)
    out = np.full(len(queries), -1, dtype=np.int64)
    search = REGISTRY.get("search.validated")
    assert search(keys, queries, starts, widths, out) is out
    np.testing.assert_array_equal(
        out, np.searchsorted(keys, queries, side="left")
    )
    assert REGISTRY.effective_mode() == "numpy"
    assert numba_available is False
