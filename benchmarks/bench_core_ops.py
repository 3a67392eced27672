"""Wall-clock micro-benchmarks of the library's own hot paths.

Unlike the table/figure targets (which report *simulated* nanoseconds),
these measure the real Python/numpy throughput of the public API: layer
construction, batch prediction, and lookups.  Useful for tracking
regressions in the implementation itself.
"""

import numpy as np
import pytest

from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData
from repro.core.shift_table import ShiftTable
from repro.datasets import load
from repro.models import InterpolationModel, RadixSplineModel, RMIModel

N = 500_000


@pytest.fixture(scope="module")
def keys():
    return load("face64", N, seed=42)


@pytest.fixture(scope="module")
def data(keys):
    return SortedData(keys, name="face64")


@pytest.fixture(scope="module")
def im(keys):
    return InterpolationModel(keys)


def test_build_shift_table(benchmark, keys, im):
    layer = benchmark(ShiftTable.build, keys, im)
    assert layer.num_partitions == N


def test_build_compact_shift_table(benchmark, keys, im):
    layer = benchmark(CompactShiftTable.build, keys, im)
    assert layer.num_partitions == N


def test_build_rmi(benchmark, keys):
    model = benchmark(RMIModel, keys, 4096)
    assert model.num_leaves == 4096


def test_build_radix_spline(benchmark, keys):
    model = benchmark(RadixSplineModel, keys, 32)
    assert model.num_spline_points > 1


def test_model_batch_predict(benchmark, keys, im):
    out = benchmark(im.predict_pos_batch, keys)
    assert len(out) == N


def test_corrected_index_lookups(benchmark, data, keys, im):
    layer = ShiftTable.build(keys, im)
    index = CorrectedIndex(data, im, layer)
    queries = np.random.default_rng(7).choice(keys, 200)

    def run():
        return index.lookup_batch(queries)

    got = benchmark(run)
    assert np.array_equal(got, data.lower_bound_batch(queries))


def test_searchsorted_baseline(benchmark, data, keys):
    queries = np.random.default_rng(7).choice(keys, 200)
    benchmark(np.searchsorted, keys, queries)


def test_corrected_index_batch_fast(benchmark, data, keys, im):
    layer = ShiftTable.build(keys, im)
    index = CorrectedIndex(data, im, layer)
    queries = np.random.default_rng(7).choice(keys, 2000)

    got = benchmark(index.lookup_batch_vectorized, queries)
    assert np.array_equal(got, data.lower_bound_batch(queries))
