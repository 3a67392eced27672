"""End-to-end integration flows across module boundaries.

Each test walks a realistic usage path — the kind a downstream adopter
would write — touching datasets, models, layers, the tuner, persistence,
the range engine, and the measurement harness together.
"""

import numpy as np
import pytest

from repro import (
    CorrectedIndex,
    InterpolationModel,
    MachineSpec,
    RadixSplineModel,
    ShiftTable,
    SortedData,
    UpdatableCorrectedIndex,
    measure_latency_curve,
    tune,
)
from repro.bench import build_method, measure_index, uniform_over_keys
from repro.core.range_query import RangeQueryEngine
from repro.core.serialize import (
    load_layer,
    load_model,
    save_layer,
    save_model,
)
from repro.datasets import load

N = 60_000


def test_full_pipeline_build_tune_measure_serve(tmp_path):
    """dataset -> curve -> tune -> persist -> reload -> serve -> measure."""
    keys = load("amzn64", N, seed=81)
    data = SortedData(keys, name="amzn64")
    machine = MachineSpec.paper().scaled_for(N, data.record_bytes)

    # tune with a measured latency curve
    curve = measure_latency_curve(keys, machine, record_bytes=data.record_bytes)
    index, report = tune(data, InterpolationModel(keys), curve=curve)
    assert report.layer_enabled and index.layer is not None

    # persist model and layer separately (§3.9: the layer is detachable),
    # reload both without refitting, rebuild the index
    save_model(index.model, tmp_path / "model.npz")
    save_layer(index.layer, tmp_path / "layer.npz")
    served = CorrectedIndex(data, load_model(tmp_path / "model.npz"),
                            load_layer(tmp_path / "layer.npz"))

    # measure and verify
    queries = uniform_over_keys(keys, 256, seed=82)
    m = measure_index(served, data, queries, machine)
    assert m.correct
    assert m.ns_per_lookup < 400  # far below full binary search

    # serve range queries
    engine = RangeQueryEngine(served)
    lo, hi = np.sort(np.random.default_rng(83).choice(keys, 2))
    assert engine.count(lo, hi) == int(((keys >= lo) & (keys < hi)).sum())


def test_model_swap_keeps_layer_contract():
    """Swapping a better model under the same pipeline shrinks windows."""
    keys = load("face64", N, seed=81)
    data = SortedData(keys, name="face64")
    im_layer = ShiftTable.build(keys, InterpolationModel(keys))
    rs = RadixSplineModel(keys, epsilon=32)
    rs_layer = ShiftTable.build(keys, rs)
    assert rs_layer.expected_window() <= im_layer.expected_window()
    # both stacks remain exact
    qs = np.random.default_rng(7).choice(keys, 200)
    for model, layer in ((InterpolationModel(keys), im_layer), (rs, rs_layer)):
        idx = CorrectedIndex(data, model, layer)
        assert np.array_equal(idx.lookup_batch(qs), data.lower_bound_batch(qs))


def test_update_then_rebuild_cycle():
    """Insert through the §6 extension, merge, rebuild, verify."""
    keys = load("wiki64", N, seed=81)
    data = SortedData(keys, name="wiki64")
    model = InterpolationModel(keys)
    updatable = UpdatableCorrectedIndex(
        CorrectedIndex(data, model, ShiftTable.build(keys, model)),
        merge_threshold=500,
    )
    rng = np.random.default_rng(84)
    lo, hi = int(keys.min()), int(keys.max())
    inserts = (lo + (rng.random(600) * (hi - lo)).astype(np.uint64)).astype(
        keys.dtype
    )
    for k in inserts:
        updatable.insert(k)
    assert updatable.needs_merge()

    # merge: rebuild the whole stack over the merged keys
    merged = updatable.merged_keys()
    new_data = SortedData(merged, name="wiki64+merged")
    new_model = InterpolationModel(merged)
    rebuilt = CorrectedIndex(
        new_data, new_model, ShiftTable.build(merged, new_model)
    )
    qs = rng.choice(merged, 300)
    assert np.array_equal(
        rebuilt.lookup_batch(qs), np.searchsorted(merged, qs, side="left")
    )


def test_every_method_agrees_on_one_dataset():
    """All Table 2 methods return identical positions on shared queries."""
    from repro.bench.methods import TABLE2_METHODS, MethodNotAvailable

    keys = load("face32", N, seed=81)
    data = SortedData(keys, name="face32")
    qs = uniform_over_keys(keys, 128, seed=85)
    truth = data.lower_bound_batch(qs)
    tested = 0
    for method in TABLE2_METHODS:
        try:
            index, _ = build_method(method, data)
        except MethodNotAvailable:
            continue
        got = np.asarray([index.lookup(q) for q in qs])
        assert np.array_equal(got, truth), method
        tested += 1
    assert tested == len(TABLE2_METHODS)  # face32 supports everything


def test_scaled_machines_preserve_ordering():
    """The BS > IM+ShiftTable ordering holds across simulation scales."""
    for n in (20_000, 80_000):
        keys = load("osmc64", n, seed=81)
        data = SortedData(keys, name="osmc64")
        machine = MachineSpec.paper().scaled_for(n, data.record_bytes)
        queries = uniform_over_keys(keys, 128, seed=86)
        model = InterpolationModel(keys)
        layered = CorrectedIndex(data, model, ShiftTable.build(keys, model))
        bs, _ = build_method("BS", data)
        m_layered = measure_index(layered, data, queries, machine)
        m_bs = measure_index(bs, data, queries, machine)
        assert m_layered.correct and m_bs.correct
        assert m_layered.ns_per_lookup < m_bs.ns_per_lookup


def test_duplicate_heavy_end_to_end():
    """A 90%-duplicate dataset keeps every §3.1/§3.2 semantic exact."""
    rng = np.random.default_rng(87)
    base = np.sort(rng.integers(0, 500, size=5000).astype(np.uint64))
    data = SortedData(base, name="dups")
    model = InterpolationModel(base)
    engine = RangeQueryEngine(
        CorrectedIndex(data, model, ShiftTable.build(base, model))
    )
    for q in range(0, 510, 7):
        lo_pos, hi_pos = engine.equal_range(np.uint64(q))
        assert lo_pos == int(np.searchsorted(base, q, side="left"))
        assert hi_pos == int(np.searchsorted(base, q, side="right"))
