"""Compiled-kernel registry, dispatch, dtype-guard and parity suite (PR 8).

The compiled path's contract is *bit-identity*: for every model family ×
correction layer × backend, the numba kernels (run here interpreted via
their uncompiled python source when numba is absent), the numpy fallback
mirrors and the scalar Algorithm-1 loop must return element-wise
identical positions — including the §3.8 edge-validation fallbacks on
adversarial windows.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData, ensure_kernel_query_dtype
from repro.core.shift_table import ShiftTable
from repro.engine import BatchExecutor
from repro.engine.sharded import ShardedIndex
from repro.hardware.hierarchy import MemoryHierarchy
from repro.hardware.machine import MachineSpec
from repro.hardware.tracker import SimTracker
from repro.kernels import (
    KERNEL_MODES,
    REGISTRY,
    KernelRegistry,
    KernelUnavailableError,
    cpu,
    describe_kernels,
    dispatch,
    numpy_impl,
    set_kernel_mode,
)
from repro.models.base import FunctionModel
from repro.models.interpolation import InterpolationModel
from repro.models.linear import LinearModel
from repro.models.radix_spline import RadixSplineModel
from repro.models.rmi import RMIModel
from repro.search.batch import validated_lower_bound_batch

from helpers import queries_for, sorted_uint_arrays


@pytest.fixture(autouse=True)
def _restore_kernel_mode():
    prev = REGISTRY.mode
    yield
    set_kernel_mode(prev, strict=False)


def scalar_oracle(index: CorrectedIndex, queries: np.ndarray) -> np.ndarray:
    """The per-query Algorithm-1 loop — the parity ground truth."""
    return np.asarray([index.lookup(q) for q in queries], dtype=np.int64)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
def test_all_kernels_registered():
    names = REGISTRY.names()
    assert len(names) == 12
    assert "search.validated" in names
    assert "fused.window_search" in names
    for row in describe_kernels():
        assert row["live"] in ("numba", "numpy")
        assert row["has_numba"] == REGISTRY.numba_available


def test_mode_switching_and_effective_mode():
    assert set_kernel_mode("numpy") == "numpy"
    assert REGISTRY.mode == "numpy"
    assert set_kernel_mode("auto") == (
        "numba" if REGISTRY.numba_available else "numpy"
    )
    with pytest.raises(ValueError):
        set_kernel_mode("fortran")


def test_strict_numba_request_raises_without_numba():
    if REGISTRY.numba_available:
        pytest.skip("numba importable: strict request succeeds")
    with pytest.raises(KernelUnavailableError):
        set_kernel_mode("numba", strict=True)
    # non-strict degrades with a warning and lands on the fallback
    with pytest.warns(RuntimeWarning):
        assert set_kernel_mode("numba", strict=False) == "numpy"


def test_duplicate_registration_rejected():
    reg = KernelRegistry(numba_available=False)
    reg.register("k", numpy_impl=lambda: None)
    with pytest.raises(ValueError):
        reg.register("k", numpy_impl=lambda: None)


def test_registry_to_dict_is_json_ready():
    import json

    d = REGISTRY.to_dict()
    assert d["mode"] in KERNEL_MODES
    assert json.loads(json.dumps(d)) == d


def test_every_entry_has_python_source_twin():
    # the parity suite runs the numba kernels interpreted; every entry
    # must carry its uncompiled source
    for name in REGISTRY.names():
        entry = REGISTRY.entry(name)
        assert entry.python_impl is not None
        assert entry.numpy_impl is not entry.python_impl
        # only the search kernels have a numpy side; the numpy pipeline
        # runs predict/correct on the model and layer objects
        assert (entry.numpy_impl is not None) == name.startswith("search.")


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
    for mode in ("numpy", "auto"):
        set_kernel_mode(mode, strict=False)
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
# dispatch plans
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


def test_build_plan_families_and_search_kinds():
    keys = np.arange(0, 3000, 3, dtype=np.uint64)
    n = len(keys)
    expect_kind = {"none": None, "R": "window", "R-coarse": "window",
                   "S": "point"}
    for model_name in MODEL_NAMES:
        for layer_name in LAYER_NAMES:
            index = _make_index(keys, model_name, layer_name)
            plan = dispatch.build_plan(index.model, index.layer, n)
            if layer_name == "none":
                if model_name.startswith("rmi"):
                    assert plan.search_kind == "leaf_bounds"
                elif model_name == "rs":
                    assert plan.search_kind == "const_bounds"
                else:  # boundless bare model: searchsorted is optimal
                    assert plan is None
            else:
                assert plan.search_kind == expect_kind[layer_name]


def test_plan_unsupported_configurations_return_none():
    keys = np.arange(64, dtype=np.uint64)
    fn_model = FunctionModel(lambda k: float(k), len(keys))
    assert dispatch.build_plan(fn_model, None, len(keys)) is None
    # degenerate one-knot spline opts out via kernel_spec() -> None
    const_keys = np.full(8, 42, dtype=np.uint64)
    rs = RadixSplineModel(const_keys, epsilon=4, radix_bits=8)
    if rs.num_spline_points < 2:
        assert rs.kernel_spec() is None


def test_plan_cache_invalidates_on_model_swap():
    keys = np.arange(256, dtype=np.uint64)
    index = _make_index(keys, "IM", "R")
    plan1 = dispatch.plan_for(index)
    assert dispatch.plan_for(index) is plan1  # cached by identity
    index.model = LinearModel(keys)
    plan2 = dispatch.plan_for(index)
    assert plan2 is not plan1
    assert plan2.family == "affine"


def test_fused_dispatch_declines_in_numpy_mode():
    keys = np.arange(256, dtype=np.uint64)
    index = _make_index(keys, "IM", "R")
    set_kernel_mode("numpy")
    assert dispatch.fused_lookup_batch(
        index, keys, len(keys), np.array([5], dtype=np.uint64)
    ) is None


# ----------------------------------------------------------------------
# oracle parity: kernels vs numpy vs the scalar Algorithm-1 loop
# ----------------------------------------------------------------------
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
    oracle = scalar_oracle(index, queries)
    for mode in ("numpy", "auto"):
        set_kernel_mode(mode, strict=False)
        got = index.lookup_batch_vectorized(queries)
        np.testing.assert_array_equal(got, oracle, err_msg=f"mode={mode}")
    plan = dispatch.build_plan(index.model, index.layer, len(keys))
    if plan is None:
        return
    np.testing.assert_array_equal(
        dispatch.run_plan(plan, keys, queries, cpu), oracle)


@settings(max_examples=25, deadline=None)
@given(keys=sorted_uint_arrays(min_size=2, max_size=200), seed=st.integers(0, 2**16))
def test_kernel_parity_property_interpolation_window(keys, seed):
    index = _make_index(keys, "IM", "R")
    queries = queries_for(keys, rng_seed=seed, count=32)
    oracle = scalar_oracle(index, queries)
    plan = dispatch.build_plan(index.model, index.layer, len(keys))
    np.testing.assert_array_equal(
        dispatch.run_plan(plan, keys, queries, cpu), oracle)
    set_kernel_mode("numpy")
    np.testing.assert_array_equal(
        index.lookup_batch_vectorized(queries), oracle
    )


@settings(max_examples=15, deadline=None)
@given(keys=sorted_uint_arrays(min_size=4, max_size=150), seed=st.integers(0, 2**16))
def test_kernel_parity_property_rmi_point_correction(keys, seed):
    # constant-key data breaks numpy's polyfit (pre-existing cubic-RMI
    # build limitation, unrelated to the kernels under test)
    assume(keys[0] != keys[-1])
    index = _make_index(keys, "rmi-cubic", "S")
    queries = queries_for(keys, rng_seed=seed, count=32)
    oracle = scalar_oracle(index, queries)
    plan = dispatch.build_plan(index.model, index.layer, len(keys))
    np.testing.assert_array_equal(
        dispatch.run_plan(plan, keys, queries, cpu), oracle)
    set_kernel_mode("numpy")
    np.testing.assert_array_equal(
        index.lookup_batch_vectorized(queries), oracle
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
    for impls in (cpu, numpy_impl):
        out = np.empty(len(queries), dtype=np.int64)
        impls.validated_search(
            keys, queries, starts.astype(np.int64),
            widths.astype(np.int64), out,
        )
        np.testing.assert_array_equal(out, truth)


@pytest.mark.parametrize("impls", [cpu, numpy_impl], ids=["cpu", "numpy"])
def test_validated_search_adversarial_fixed_windows(impls):
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
            impls.validated_search(
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
    """The one batch search (windowed + §3.8 validation) answers exactly
    on both backends, whatever the windows — clipped, empty, misplaced."""
    rng = np.random.default_rng(seed)
    n = len(keys)
    queries = queries_for(keys, rng_seed=seed, count=16)
    starts = rng.integers(-2, n + 2, size=len(queries))
    widths = rng.integers(0, n + 1, size=len(queries))
    ref = validated_lower_bound_batch(keys, queries, starts, widths)
    for impls in (cpu, numpy_impl):
        out = np.empty(len(queries), dtype=np.int64)
        impls.validated_search(
            keys, queries, starts.astype(np.int64), widths.astype(np.int64),
            out,
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
# engine-level parity across backends × kernel modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["static", "gapped", "fenwick"])
def test_executor_parity_across_backends_and_modes(backend):
    rng = np.random.default_rng(31)
    keys = np.sort(rng.integers(0, 1 << 45, 5000).astype(np.uint64))
    sharded = ShardedIndex.build(keys, num_shards=3, backend=backend)
    queries = queries_for(keys, rng_seed=37)
    truth = np.searchsorted(keys, queries, side="left")
    executor = BatchExecutor(sharded)
    for mode in ("numpy", "auto"):
        set_kernel_mode(mode, strict=False)
        np.testing.assert_array_equal(
            executor.lookup_batch(queries), truth, err_msg=f"{backend}/{mode}"
        )
