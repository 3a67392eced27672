"""Vectorised batch lookups and in-memory entry packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData
from repro.core.shift_table import ShiftTable, pack_layer_arrays
from repro.datasets import load
from repro.models import InterpolationModel, RadixSplineModel, RMIModel

from helpers import sorted_uint_arrays

N = 30_000


def queries_mixed(keys, count=800, seed=3):
    rng = np.random.default_rng(seed)
    lo, hi = int(keys.min()), int(keys.max())
    dom = (lo + (rng.random(count) * max(hi - lo, 1)).astype(np.uint64)).astype(
        keys.dtype
    )
    return np.concatenate([rng.choice(keys, count), dom])


@pytest.mark.parametrize("dataset", ["face64", "wiki64", "logn32"])
def test_fast_batch_matches_scalar(dataset):
    keys = load(dataset, N, seed=111)
    data = SortedData(keys)
    model = InterpolationModel(keys)
    index = CorrectedIndex(data, model, ShiftTable.build(keys, model))
    qs = queries_mixed(keys)
    fast = index.lookup_batch_vectorized(qs)
    assert np.array_equal(fast, data.lower_bound_batch(qs))


def test_fast_batch_nonmonotone_model_still_exact():
    keys = load("face64", N, seed=111)
    data = SortedData(keys)
    model = RMIModel(keys, num_leaves=128, root="cubic")
    index = CorrectedIndex(data, model, ShiftTable.build(keys, model))
    qs = queries_mixed(keys, count=400)
    assert np.array_equal(index.lookup_batch_vectorized(qs),
                          data.lower_bound_batch(qs))


def test_fast_batch_falls_back_without_r_layer():
    keys = load("wiki64", N, seed=111)
    data = SortedData(keys)
    model = InterpolationModel(keys)
    for layer in (None, CompactShiftTable.build(keys, model)):
        index = CorrectedIndex(data, model, layer)
        qs = queries_mixed(keys, count=150)
        assert np.array_equal(index.lookup_batch_vectorized(qs),
                              data.lower_bound_batch(qs))


@settings(max_examples=40, deadline=None)
@given(keys=sorted_uint_arrays(min_size=2, max_size=250), seed=st.integers(0, 99))
def test_property_fast_batch(keys, seed):
    data = SortedData(keys)
    model = InterpolationModel(keys)
    index = CorrectedIndex(data, model, ShiftTable.build(keys, model))
    qs = queries_mixed(keys, count=24, seed=seed)
    assert np.array_equal(index.lookup_batch_vectorized(qs),
                          data.lower_bound_batch(qs))


def test_packing_preserves_values_and_lookups():
    keys = load("osmc64", N, seed=111)
    data = SortedData(keys)
    model = RadixSplineModel(keys, epsilon=32, radix_bits=12)
    layer = ShiftTable.build(keys, model)
    deltas_before = layer.deltas.astype(np.int64).copy()
    widths_before = layer.widths.astype(np.int64).copy()
    pack_layer_arrays(layer)
    assert layer.deltas.dtype.itemsize * 2 == layer.entry_bytes
    assert np.array_equal(layer.deltas.astype(np.int64), deltas_before)
    assert np.array_equal(layer.widths.astype(np.int64), widths_before)
    index = CorrectedIndex(data, model, layer)
    qs = queries_mixed(keys, count=300)
    assert np.array_equal(index.lookup_batch(qs), data.lower_bound_batch(qs))


def test_packing_shrinks_host_memory():
    keys = load("wiki64", N, seed=111)
    model = InterpolationModel(keys)
    layer = ShiftTable.build(keys, model)
    before = layer.deltas.nbytes + layer.widths.nbytes
    pack_layer_arrays(layer)
    after = layer.deltas.nbytes + layer.widths.nbytes
    assert after < before
    assert after == layer.size_bytes()
