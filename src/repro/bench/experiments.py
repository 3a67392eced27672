"""Experiment drivers: one function per paper table/figure (DESIGN.md §4).

Each driver returns plain rows (lists/dicts): :mod:`repro.bench.paper`
renders them and checks the paper's claims against them
(``python -m repro paper <artifact>``), and the examples can reuse them
directly.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.compact import CompactShiftTable
from ..core.corrected_index import CorrectedIndex
from ..core.cost_model import (
    expected_error,
    latency_with_layer,
    latency_without_layer,
    measure_latency_curve,
)
from ..core.errors import signed_drift
from ..core.records import SortedData
from ..core.shift_table import ShiftTable
from ..datasets import cdf as cdf_utils
from ..datasets import load
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.machine import MachineSpec
from ..hardware.tracker import SimTracker
from ..models.base import FunctionModel
from ..models.interpolation import InterpolationModel
from ..models.linear import LinearModel
from ..search.binary import lower_bound
from ..search.exponential import exponential_lower_bound
from ..search.linear import linear_around
from .harness import Measurement, measure_index
from .methods import TABLE2_METHODS, MethodNotAvailable, build_method
from .workload import (
    env_num_keys,
    env_num_queries,
    env_seed,
    uniform_over_domain,
    uniform_over_keys,
)

#: The eight datasets of Figure 9, in the paper's x-axis order.
FIG9_DATASETS = (
    "amzn64", "face32", "logn32", "norm64", "osmc64", "uden32", "uspr32", "wiki64",
)


def _machine_for(data: SortedData) -> MachineSpec:
    return MachineSpec.paper().scaled_for(len(data), data.record_bytes)


def _sorted_data(name: str, n: int, seed: int) -> SortedData:
    return SortedData(load(name, n, seed), name=name)


# ----------------------------------------------------------------------
# Table 2 — the SOSD benchmark
# ----------------------------------------------------------------------
def table2(
    datasets: tuple[str, ...] | None = None,
    methods: tuple[str, ...] | None = None,
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[Measurement]:
    """Lookup times (simulated ns) for every dataset × method cell."""
    from ..datasets.registry import TABLE2_DATASETS

    datasets = datasets or TABLE2_DATASETS
    methods = methods or TABLE2_METHODS
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed

    out: list[Measurement] = []
    for ds_name in datasets:
        data = _sorted_data(ds_name, n, seed)
        machine = _machine_for(data)
        queries = uniform_over_keys(data.keys, num_queries, seed + 1)
        for method in methods:
            try:
                index, build_s = build_method(method, data, seed)
            except MethodNotAvailable as exc:
                out.append(
                    Measurement.not_available(method, ds_name, n, str(exc))
                )
                continue
            out.append(
                measure_index(
                    index,
                    data,
                    queries,
                    machine,
                    dataset_name=ds_name,
                    build_seconds=build_s,
                )
            )
            out[-1].method = method  # canonical column name
    return out


# ----------------------------------------------------------------------
# Figure 2 — cost of the last-mile search vs model error
# ----------------------------------------------------------------------
def fig2_local_search(
    n: int | None = None,
    errors: tuple[int, ...] = (10, 30, 100, 300, 1000, 3000, 10_000, 100_000, 1_000_000),
    num_queries: int = 96,
    seed: int | None = None,
) -> list[dict]:
    """§2.3's micro-benchmark: local-search latency and LLC misses vs Δ.

    Linear / exponential search start from a prediction that is Δ records
    off; bounded binary searches the guaranteed ±Δ window; "Binary w/o
    model" and FAST search the whole array.  32-bit keys (FAST's limit).
    """
    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    # only errors that leave room for a ±Δ window inside the array
    errors = tuple(e for e in errors if 2 * e < n)
    data = _sorted_data("uspr32", n, seed)
    machine = _machine_for(data)
    rng = np.random.default_rng(seed + 2)
    rows: list[dict] = []

    def run(search_fn, label: str, error: int) -> dict:
        hierarchy = MemoryHierarchy(machine)
        tracker = SimTracker(hierarchy)
        positions = rng.integers(error, n - error - 1, size=num_queries)
        # warm with one pass, measure the second (different positions)
        for phase in ("warm", "measure"):
            if phase == "measure":
                hierarchy.reset_stats()
                positions = rng.integers(error, n - error - 1, size=num_queries)
            for t in positions:
                t = int(t)
                q = data.keys[t]
                sign = 1 if (t & 1) else -1
                pred = t + sign * error
                result = search_fn(tracker, q, pred, error)
                assert data.keys[result] >= q
        stats = hierarchy.stats
        return {
            "method": label,
            "error": error,
            "ns": stats.total_ns / num_queries,
            "llc_misses": stats.llc_misses / num_queries,
        }

    keys, region = data.keys, data.region

    def linear_fn(tracker, q, pred, error):
        return linear_around(keys, region, tracker, q, pred)

    def exp_fn(tracker, q, pred, error):
        return exponential_lower_bound(keys, region, tracker, q, pred)

    def binary_fn(tracker, q, pred, error):
        lo = max(pred - error, 0)
        hi = min(pred + error + 1, n)
        return lower_bound(keys, region, tracker, q, lo, hi)

    for error in errors:
        rows.append(run(linear_fn, "Linear", error))
        rows.append(run(exp_fn, "Exponential", error))
        rows.append(run(binary_fn, "Binary", error))

    # distribution-independent full-array baselines (flat lines)
    def full_binary_fn(tracker, q, pred, error):
        return lower_bound(keys, region, tracker, q, 0, n)

    fast_index, _ = build_method("FAST", data, seed)

    def fast_fn(tracker, q, pred, error):
        return fast_index.lookup(q, tracker)

    for label, fn in (("Binary w/o model", full_binary_fn), ("FAST", fast_fn)):
        row = run(fn, label, errors[0])
        for error in errors:
            rows.append({**row, "error": error})
    rows.append(
        {"method": "DRAM latency", "error": None, "ns": machine.dram_ns,
         "llc_misses": 1.0}
    )
    return rows


# ----------------------------------------------------------------------
# Figure 3 — micro-complexity of synthetic vs real-world CDFs
# ----------------------------------------------------------------------
def fig3_distributions(
    n: int | None = None,
    datasets: tuple[str, ...] = ("uden64", "face64", "logn64", "osmc64"),
    windows: tuple[int, ...] = (64, 256, 1024, 4096),
    seed: int | None = None,
) -> list[dict]:
    """Local-linearity series: the 'zoomed-in view' contrast of Figure 3."""
    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    rows = []
    for name in datasets:
        keys = load(name, n, seed)
        for window in windows:
            rows.append(
                {
                    "dataset": name,
                    "window": window,
                    "local_linearity": cdf_utils.local_linearity(
                        keys, window=window, max_windows=256, seed=seed
                    ),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 6 — error correction of a single-line model on osmc
# ----------------------------------------------------------------------
def fig6_error_correction(
    n: int | None = None, seed: int | None = None
) -> dict:
    """Mean/percentile error of a least-squares line, before and after
    Shift-Table correction (paper: 28M keys -> 129 keys at 200M scale)."""
    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    keys = load("osmc64", n, seed)
    model = LinearModel(keys)
    before = np.abs(signed_drift(keys, model))
    layer = CompactShiftTable.build(keys, model)
    corrected = layer.correct_batch(model.predict_pos_batch(keys))
    after = np.abs(cdf_utils.key_positions(keys) - corrected)
    return {
        "dataset": "osmc64",
        "n": n,
        "model": "least-squares line",
        "mean_error_before": float(before.mean()),
        "mean_error_after": float(after.mean()),
        "p99_before": float(np.percentile(before, 99)),
        "p99_after": float(np.percentile(after, 99)),
        "max_before": float(before.max()),
        "max_after": float(after.max()),
        "reduction_factor": float(before.mean() / max(after.mean(), 1e-9)),
    }


# ----------------------------------------------------------------------
# Figure 7 — build times
# ----------------------------------------------------------------------
def fig7_build_times(
    n: int | None = None,
    methods: tuple[str, ...] = (
        "ART", "B+tree", "FAST", "RBS", "RMI", "RS", "RS+ShiftTable",
        "IM+ShiftTable",
    ),
    seed: int | None = None,
) -> list[dict]:
    """Mean ± std build seconds per method across all 14 datasets."""
    from ..datasets.registry import TABLE2_DATASETS
    from .methods import clear_model_cache

    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    times: dict[str, list[float]] = {m: [] for m in methods}
    for ds_name in TABLE2_DATASETS:
        data = _sorted_data(ds_name, n, seed)
        clear_model_cache()  # build times must include the real model fit
        for method in methods:
            try:
                _, build_s = build_method(method, data, seed)
            except MethodNotAvailable:
                continue
            times[method].append(build_s)
    return [
        {
            "method": m,
            "mean_seconds": float(np.mean(ts)) if ts else float("nan"),
            "std_seconds": float(np.std(ts)) if ts else float("nan"),
            "datasets": len(ts),
        }
        for m, ts in times.items()
    ]


# ----------------------------------------------------------------------
# Figure 8 — effect of index size
# ----------------------------------------------------------------------
def fig8_index_size(
    datasets: tuple[str, ...] = ("face64", "osmc64"),
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Latency / log2-error / instructions / cache misses vs index size."""
    from ..algorithmic.btree import BPlusTree
    from ..algorithmic.rbs import RadixBinarySearch
    from ..models.radix_spline import RadixSplineModel
    from ..models.rmi import RMIModel

    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    rows: list[dict] = []
    for ds_name in datasets:
        data = _sorted_data(ds_name, n, seed)
        machine = _machine_for(data)
        queries = uniform_over_keys(data.keys, num_queries, seed + 1)

        def run(index, label: str, log2_err: float) -> None:
            m = measure_index(index, data, queries, machine, dataset_name=ds_name)
            rows.append(
                {
                    "dataset": ds_name,
                    "method": label,
                    "size_bytes": m.size_bytes,
                    "ns": m.ns_per_lookup,
                    "log2_error": log2_err,
                    "instructions": m.instructions_per_lookup,
                    "l1_misses": m.l1_misses_per_lookup,
                    "llc_misses": m.llc_misses_per_lookup,
                    "correct": m.correct,
                }
            )

        for eps in (512, 128, 32, 8):
            model = RadixSplineModel(data.keys, epsilon=eps)
            run(CorrectedIndex(data, model, None), "RS", np.log2(eps + 1))
            layer = ShiftTable.build(data.keys, model)
            run(
                CorrectedIndex(data, model, layer),
                "RS+ShiftTable",
                np.log2(expected_error(layer.counts) + 1),
            )
        for leaves in (1 << 8, 1 << 12, 1 << 16, 1 << 18):
            if leaves > n:
                continue
            model = RMIModel(data.keys, num_leaves=leaves)
            run(
                CorrectedIndex(data, model, None),
                "RMI",
                np.log2(model.mean_abs_error + 1),
            )
        for fanout in (4, 16, 64, 256):
            run(BPlusTree(data, fanout=fanout), "B+tree", np.log2(fanout + 1))
        for bits in (10, 14, 18, 22):
            index = RadixBinarySearch(data, radix_bits=bits)
            bucket = max(n / (1 << bits), 1.0)
            run(index, "RBS", np.log2(bucket + 1))
        im = InterpolationModel(data.keys)
        for m_div in (64, 16, 4, 1):
            layer = ShiftTable.build(data.keys, im, num_partitions=n // m_div)
            run(
                CorrectedIndex(data, im, layer),
                "IM+ShiftTable",
                np.log2(expected_error(layer.counts) + 1),
            )
    return rows


# ----------------------------------------------------------------------
# Figure 9 — Shift-Table layer size (R-1, S-1, S-10, S-100, S-1000)
# ----------------------------------------------------------------------
def fig9_layer_size(
    datasets: tuple[str, ...] = FIG9_DATASETS,
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Latency and mean error per layer mode, IM model (paper Figure 9)."""
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    rows: list[dict] = []
    for ds_name in datasets:
        data = _sorted_data(ds_name, n, seed)
        machine = _machine_for(data)
        queries = uniform_over_keys(data.keys, num_queries, seed + 1)
        model = InterpolationModel(data.keys)
        pred = model.predict_pos_batch(data.keys)
        truth = cdf_utils.key_positions(data.keys)

        configs: list[tuple[str, object]] = [("R-1", ShiftTable.build(data.keys, model))]
        for x in (1, 10, 100, 1000):
            m = max(n // x, 1)
            configs.append(
                (f"S-{x}", CompactShiftTable.build(data.keys, model, num_partitions=m))
            )
        configs.append(("Without Shift-Table", None))

        for label, layer in configs:
            index = CorrectedIndex(data, model, layer)
            m = measure_index(index, data, queries, machine, dataset_name=ds_name)
            if layer is None:
                err = float(np.abs(truth - np.clip(pred.astype(np.int64), 0, n - 1)).mean())
            elif isinstance(layer, ShiftTable):
                err = expected_error(layer.counts)
            else:
                err = float(
                    np.abs(truth - layer.correct_batch(pred)).mean()
                )
            rows.append(
                {
                    "dataset": ds_name,
                    "mode": label,
                    "ns": m.ns_per_lookup,
                    "avg_error": err,
                    "size_bytes": (layer.size_bytes() if layer else 0),
                    "correct": m.correct,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Table 1 — the compact-layer worked example (exact reproduction)
# ----------------------------------------------------------------------
def table1_compact_example() -> dict:
    """Rebuild the paper's Table 1 (M=30 layer over N=100, F_θ = x/1000).

    The eight visible keys 752..830 sit at positions 34..41; filler keys
    below 734 and above 833 complete the 100-key index without touching
    partitions 22-24.  Every printed cell must match the paper exactly.
    """
    fillers_low = [i * 20 for i in range(34)]            # < 734
    visible = [752, 769, 770, 771, 782, 785, 820, 830]   # positions 34..41
    fillers_high = [834 + j * 2 for j in range(58)]      # >= 834
    keys = np.asarray(fillers_low + visible + fillers_high, dtype=np.uint64)
    assert len(keys) == 100 and bool(np.all(np.diff(keys.astype(np.int64)) > 0))

    model = FunctionModel(lambda x: x / 10.0, 100, name="F=x/1000")
    layer = CompactShiftTable.build(keys, model, num_partitions=30)

    indices = list(range(34, 42))
    preds = [int(k / 10) for k in visible]
    partitions = [int((k / 10.0) * (30 / 100)) for k in visible]
    drifts = [int(layer.drifts[j]) for j in partitions]
    corrected = [p + d for p, d in zip(preds, drifts)]
    errors_before = [i - p for i, p in zip(indices, preds)]
    # the paper's Table 1 flips the sign convention between its two error
    # rows: "before" is actual - predicted, "after" is corrected - actual;
    # we print exactly what the paper prints
    errors_after = [c - i for i, c in zip(indices, corrected)]
    return {
        "index": indices,
        "key": visible,
        "predicted": preds,
        "error_before": errors_before,
        "partition": partitions,
        "mean_drift": drifts,
        "corrected": corrected,
        "error_after": errors_after,
        # the paper's printed cells, for verification
        "paper_predicted": [75, 76, 77, 77, 78, 78, 82, 83],
        "paper_error_before": [-41, -41, -41, -40, -40, -39, -42, -42],
        "paper_mean_drift_by_partition": {22: -41, 23: -40, 24: -42},
        "paper_corrected": [34, 36, 37, 37, 38, 38, 40, 41],
        "paper_error_after": [0, 1, 1, 0, 0, -1, 0, 0],
    }


# ----------------------------------------------------------------------
# Ablations (DESIGN.md A1-A6)
# ----------------------------------------------------------------------
def ablation_cost_model(
    datasets: tuple[str, ...] = ("face64", "osmc64", "uden64", "wiki64"),
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Eq. 9/10 predictions vs harness-measured latency (IM ± layer)."""
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    rows = []
    for ds_name in datasets:
        data = _sorted_data(ds_name, n, seed)
        machine = _machine_for(data)
        curve = measure_latency_curve(data.keys, machine,
                                      record_bytes=data.record_bytes, seed=seed)
        queries = uniform_over_keys(data.keys, num_queries, seed + 1)
        model = InterpolationModel(data.keys)
        layer = ShiftTable.build(data.keys, model)
        with_m = measure_index(
            CorrectedIndex(data, model, layer), data, queries, machine,
            dataset_name=ds_name,
        )
        without_m = measure_index(
            CorrectedIndex(data, model, None), data, queries, machine,
            dataset_name=ds_name,
        )
        model_ns = 2.0  # IM is register-resident arithmetic
        rows.append(
            {
                "dataset": ds_name,
                "predicted_with": latency_with_layer(model_ns, layer.counts, curve),
                "measured_with": with_m.ns_per_lookup,
                "predicted_without": latency_without_layer(
                    model_ns, layer.counts, layer.deltas, curve
                ),
                "measured_without": without_m.ns_per_lookup,
            }
        )
    return rows


def ablation_local_threshold(
    thresholds: tuple[int, ...] = (0, 2, 8, 32, 128),
    dataset: str = "face64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Sweep Algorithm 1's linear-to-binary threshold (paper uses 8)."""
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    queries = uniform_over_keys(data.keys, num_queries, seed + 1)
    model = InterpolationModel(data.keys)
    layer = ShiftTable.build(data.keys, model)
    rows = []
    for threshold in thresholds:
        index = CorrectedIndex(data, model, layer, threshold=threshold)
        m = measure_index(index, data, queries, machine, dataset_name=dataset)
        rows.append(
            {"threshold": threshold, "ns": m.ns_per_lookup,
             "instructions": m.instructions_per_lookup}
        )
    return rows


def ablation_sampling(
    fractions: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0),
    dataset: str = "osmc64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """§3.4: build the S-mode layer from a sample; error and latency."""
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    queries = uniform_over_keys(data.keys, num_queries, seed + 1)
    model = InterpolationModel(data.keys)
    rows = []
    for frac in fractions:
        sample = None if frac >= 1.0 else int(n * frac)
        t0 = time.perf_counter()
        layer = CompactShiftTable.build(
            data.keys, model, sample_size=sample, seed=seed
        )
        build_s = time.perf_counter() - t0
        index = CorrectedIndex(data, model, layer)
        m = measure_index(index, data, queries, machine, dataset_name=dataset)
        truth = cdf_utils.key_positions(data.keys)
        err = float(
            np.abs(truth - layer.correct_batch(model.predict_pos_batch(data.keys))).mean()
        )
        rows.append(
            {"fraction": frac, "ns": m.ns_per_lookup, "avg_error": err,
             "build_seconds": build_s}
        )
    return rows


def ablation_monotonicity(
    dataset: str = "face64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """§3.8: monotone (RS) vs non-monotone (RMI-cubic) models under R-mode."""
    from ..models.radix_spline import RadixSplineModel
    from ..models.rmi import RMIModel

    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    queries = uniform_over_keys(data.keys, num_queries, seed + 1)
    rows = []
    for model in (
        RadixSplineModel(data.keys, epsilon=32),
        RMIModel(data.keys, num_leaves=4096, root="cubic"),
        RMIModel(data.keys, num_leaves=4096, root="linear"),
    ):
        layer = ShiftTable.build(data.keys, model)
        index = CorrectedIndex(data, model, layer)
        m = measure_index(index, data, queries, machine, dataset_name=dataset)
        rows.append(
            {
                "model": model.name,
                "is_monotone": model.is_monotone,
                "validated": index.validate,
                "ns": m.ns_per_lookup,
                "correct": m.correct,
            }
        )
    return rows


def ablation_pgm(
    dataset: str = "face64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Extension: PGM vs RS vs RMI, bare and with a Shift-Table layer."""
    from ..models.pgm import PGMModel
    from ..models.radix_spline import RadixSplineModel
    from ..models.rmi import RMIModel

    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    queries = uniform_over_keys(data.keys, num_queries, seed + 1)
    rows = []
    for model in (
        PGMModel(data.keys, epsilon=64),
        RadixSplineModel(data.keys, epsilon=32),
        RMIModel(data.keys, num_leaves=4096),
    ):
        for layered in (False, True):
            layer = ShiftTable.build(data.keys, model) if layered else None
            index = CorrectedIndex(data, model, layer)
            m = measure_index(index, data, queries, machine, dataset_name=dataset)
            rows.append(
                {
                    "model": model.name,
                    "shift_table": layered,
                    "ns": m.ns_per_lookup,
                    "size_bytes": index.size_bytes(),
                    "correct": m.correct,
                }
            )
    return rows


def ablation_updates(
    dataset: str = "wiki64",
    n: int | None = None,
    num_inserts: int = 2000,
    seed: int | None = None,
) -> dict:
    """§6 future work: Fenwick-corrected inserts keep lookups exact."""
    from ..core.fenwick import UpdatableCorrectedIndex

    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    model = InterpolationModel(data.keys)
    layer = ShiftTable.build(data.keys, model)
    base = CorrectedIndex(data, model, layer)
    index = UpdatableCorrectedIndex(base)
    inserts = uniform_over_domain(data.keys, num_inserts, seed + 3)
    t0 = time.perf_counter()
    for key in inserts:
        index.insert(key)
    insert_s = time.perf_counter() - t0
    merged = index.merged_keys()
    probes = uniform_over_keys(merged, 2000, seed + 4)
    expected = np.searchsorted(merged, probes, side="left")
    got = np.asarray([index.lookup(q) for q in probes])
    return {
        "dataset": dataset,
        "inserts": num_inserts,
        "insert_us_each": insert_s / num_inserts * 1e6,
        "lookups_correct": bool(np.array_equal(got, expected)),
        "pending": index.pending_inserts,
    }


def ablation_entry_width(
    dataset: str = "wiki64",
    n: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """§3.9 last paragraph: entry width follows the model's accuracy.

    "Each mapping entry should at most fit a Δ value of Δ_MAX ... If the
    error is smaller than 2^16/2, then a 16-bit integer can be used."
    We compare the layer's auto-chosen entry width under models of very
    different accuracy and the resulting footprints.
    """
    from ..models.linear import LinearModel
    from ..models.radix_spline import RadixSplineModel

    n = n or env_num_keys()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    rows = []
    for model in (
        InterpolationModel(data.keys),
        LinearModel(data.keys),
        RadixSplineModel(data.keys, epsilon=32),
    ):
        layer = ShiftTable.build(data.keys, model)
        max_drift = int(np.abs(layer.deltas).max())
        rows.append(
            {
                "model": model.name,
                "max_abs_drift": max_drift,
                "entry_bytes": layer.entry_bytes,
                "layer_mb": layer.size_bytes() / 1e6,
            }
        )
    return rows


def ablation_query_skew(
    dataset: str = "face64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Sensitivity to query skew (the paper's eq. 8 assumes uniform).

    Compares uniform-over-keys, Zipf-over-keys (hot keys queried far
    more often) and uniform-over-domain (mostly non-indexed) workloads.
    Skewed workloads *help* every index (hot paths stay cached), and the
    layer keeps its lead — evidence that Table 2's uniform choice is the
    conservative one.
    """
    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    model = InterpolationModel(data.keys)
    layer = ShiftTable.build(data.keys, model)
    index = CorrectedIndex(data, model, layer)
    bare = CorrectedIndex(data, model, None)

    rng = np.random.default_rng(seed + 5)
    zipf_ranks = np.minimum(rng.zipf(1.3, size=num_queries), n) - 1
    workloads = {
        "uniform-keys": uniform_over_keys(data.keys, num_queries, seed + 1),
        "zipf-keys": data.keys[zipf_ranks],
        "uniform-domain": uniform_over_domain(data.keys, num_queries,
                                              seed + 2),
    }
    rows = []
    for name, queries in workloads.items():
        with_layer = measure_index(index, data, queries, machine,
                                   dataset_name=dataset)
        without = measure_index(bare, data, queries, machine,
                                dataset_name=dataset)
        rows.append(
            {
                "workload": name,
                "ns_with_layer": with_layer.ns_per_lookup,
                "ns_without": without.ns_per_lookup,
                "correct": with_layer.correct and without.correct,
            }
        )
    return rows


def ablation_cache_model(
    dataset: str = "face64",
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """A9 — fully-associative vs set-associative cache simulation.

    DESIGN.md S1 documents full associativity as a simplification; this
    ablation measures it.  The same IM+Shift-Table index is run on both
    cache organisations (8-way L1/L2, 16-way L3 matching the i7-6700);
    conflict misses should move the numbers by percents, not factors.
    """
    from ..hardware.set_associative import build_hierarchy
    from ..hardware.tracker import SimTracker as _SimTracker

    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    data = _sorted_data(dataset, n, seed)
    machine = _machine_for(data)
    queries = uniform_over_keys(data.keys, num_queries, seed + 1)
    model = InterpolationModel(data.keys)
    index = CorrectedIndex(data, model, ShiftTable.build(data.keys, model))

    rows = []
    for label, set_assoc in (("fully-associative", False),
                             ("set-associative", True)):
        hierarchy = build_hierarchy(machine, set_associative=set_assoc)
        tracker = _SimTracker(hierarchy)
        n_warm = max(len(queries) // 4, 1)
        for q in queries[:n_warm]:
            index.lookup(q, tracker)
        hierarchy.reset_stats()
        results = [index.lookup(q, tracker) for q in queries[n_warm:]]
        stats = hierarchy.stats
        num = len(queries) - n_warm
        correct = bool(
            np.array_equal(
                np.asarray(results),
                data.lower_bound_batch(queries[n_warm:]),
            )
        )
        rows.append(
            {
                "cache_model": label,
                "ns": stats.total_ns / num,
                "llc_misses": stats.llc_misses / num,
                "correct": correct,
            }
        )
    return rows


def ablation_related_work(
    datasets: tuple[str, ...] = ("face64", "uden64"),
    n: int | None = None,
    num_queries: int | None = None,
    seed: int | None = None,
) -> list[dict]:
    """A10 — §5 related-work structures beyond Table 2's columns.

    Skip list (the read-only, array-backed §5 baseline) and the
    equi-depth histogram model (±bucket-depth drift by construction),
    bare and with a Shift-Table, against the paper's IM+Shift-Table.
    """
    from ..algorithmic.skiplist import SkipList
    from ..models.histogram import HistogramModel

    n = n or env_num_keys()
    num_queries = num_queries or env_num_queries()
    seed = env_seed() if seed is None else seed
    rows = []
    for ds_name in datasets:
        data = _sorted_data(ds_name, n, seed)
        machine = _machine_for(data)
        queries = uniform_over_keys(data.keys, num_queries, seed + 1)

        im = InterpolationModel(data.keys)
        hist = HistogramModel(data.keys, buckets=max(n // 256, 16))
        candidates = [
            SkipList(data),
            CorrectedIndex(data, hist, None, name="Hist"),
            CorrectedIndex(
                data, hist, ShiftTable.build(data.keys, hist),
                name="Hist+ShiftTable",
            ),
            CorrectedIndex(
                data, im, ShiftTable.build(data.keys, im),
                name="IM+ShiftTable",
            ),
        ]
        for index in candidates:
            m = measure_index(index, data, queries, machine,
                              dataset_name=ds_name)
            rows.append(
                {
                    "dataset": ds_name,
                    "method": index.name,
                    "ns": m.ns_per_lookup,
                    "size_bytes": int(index.size_bytes()),
                    "correct": m.correct,
                }
            )
    return rows
