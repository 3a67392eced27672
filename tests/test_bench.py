"""Benchmark harness: workloads, the measurement loop, the method
registry, and the report formatting."""

import math

import numpy as np
import pytest

from repro.bench import (
    Measurement,
    MethodNotAvailable,
    OnTheFlyIndex,
    TABLE2_METHODS,
    build_method,
    format_table,
    measure_index,
    mixed_workload,
    speedup,
    to_csv,
    uniform_over_domain,
    uniform_over_keys,
)
from repro.core.records import SortedData
from repro.datasets import load
from repro.hardware.machine import MachineSpec
from repro.search.binary import lower_bound

N = 20_000


@pytest.fixture(scope="module")
def face_data():
    return SortedData(load("face64", N, seed=41), name="face64")


@pytest.fixture(scope="module")
def machine():
    return MachineSpec.paper().scaled_for(N, 16)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def test_uniform_over_keys_only_stored_keys(face_data):
    qs = uniform_over_keys(face_data.keys, 500, seed=1)
    assert len(qs) == 500
    assert bool(np.all(np.isin(qs, face_data.keys)))


def test_uniform_over_domain_within_range(face_data):
    qs = uniform_over_domain(face_data.keys, 500, seed=1)
    assert qs.min() >= face_data.keys.min()
    assert qs.max() <= face_data.keys.max()


def test_mixed_workload_fraction(face_data):
    qs = mixed_workload(face_data.keys, 400, indexed_fraction=0.5, seed=1)
    stored = np.isin(qs, face_data.keys).sum()
    assert stored >= 200  # at least the indexed half (collisions can add)
    with pytest.raises(ValueError):
        mixed_workload(face_data.keys, 10, indexed_fraction=1.5)


def test_workloads_deterministic(face_data):
    a = uniform_over_keys(face_data.keys, 100, seed=9)
    b = uniform_over_keys(face_data.keys, 100, seed=9)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# measurement loop
# ----------------------------------------------------------------------
def test_measure_index_counters(face_data, machine):
    index = OnTheFlyIndex(face_data, lower_bound, "BS")
    qs = uniform_over_keys(face_data.keys, 256, seed=2)
    m = measure_index(index, face_data, qs, machine)
    assert m.correct
    assert m.ns_per_lookup > machine.dram_ns  # binary search misses a lot
    assert m.instructions_per_lookup > 10
    assert m.llc_misses_per_lookup >= 1
    assert m.queries == 192  # 25% warmup by default
    assert m.method == "BS"


def test_measure_index_detects_wrong_results(face_data, machine):
    class Broken:
        name = "broken"

        def lookup(self, q, tracker):
            return 0

        def size_bytes(self):
            return 0

    qs = uniform_over_keys(face_data.keys, 64, seed=2)
    m = measure_index(Broken(), face_data, qs, machine)
    assert not m.correct


def test_measurement_not_available():
    m = Measurement.not_available("FAST", "face64", 100, "64-bit keys")
    assert not m.available
    assert math.isnan(m.ns_per_lookup)


# ----------------------------------------------------------------------
# method registry
# ----------------------------------------------------------------------
def test_registry_covers_table2_columns():
    assert len(TABLE2_METHODS) == 12


@pytest.mark.parametrize("method", TABLE2_METHODS)
def test_build_method_face32(method):
    data = SortedData(load("face32", N, seed=41), name="face32")
    index, build_s = build_method(method, data)
    assert build_s >= 0
    qs = uniform_over_keys(data.keys, 64, seed=3)
    got = np.asarray([index.lookup(q) for q in qs])
    assert np.array_equal(got, data.lower_bound_batch(qs))


def test_build_method_na_cells():
    wiki = SortedData(load("wiki64", N, seed=41), name="wiki64")
    with pytest.raises(MethodNotAvailable):
        build_method("ART", wiki)  # duplicates
    with pytest.raises(MethodNotAvailable):
        build_method("FAST", wiki)  # 64-bit keys


def test_build_method_unknown():
    data = SortedData(load("face32", 1000, seed=41), name="face32")
    with pytest.raises(KeyError):
        build_method("BTREE-9000", data)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def test_format_table_renders_nan_as_na():
    text = format_table(["a", "b"], [["x", float("nan")], ["y", 1.25]])
    assert "N/A" in text
    assert "1.2" in text


def test_format_table_title_and_alignment():
    text = format_table(["name", "v"], [["abc", 1.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")


def test_to_csv_roundtrip():
    csv_text = to_csv(["a", "b"], [[1, 2], [3, 4]])
    assert csv_text.splitlines()[0] == "a,b"
    assert csv_text.splitlines()[2] == "3,4"


def test_speedup():
    assert speedup(200.0, 100.0) == 2.0
    assert math.isnan(speedup(float("nan"), 100.0))
    assert math.isnan(speedup(100.0, 0.0))
