"""Skip list baseline, histogram model, set-associative cache, and CLI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithmic.skiplist import SkipList
from repro.cli import main as cli_main
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData
from repro.core.shift_table import ShiftTable
from repro.datasets import load
from repro.hardware.machine import MachineSpec
from repro.hardware.set_associative import (
    SetAssociativeCacheLevel,
    build_hierarchy,
)
from repro.models.histogram import HistogramModel

from helpers import queries_for, sorted_uint_arrays

N = 20_000


# ----------------------------------------------------------------------
# skip list
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dataset", ["face64", "wiki64", "logn32"])
@pytest.mark.parametrize("span", [2, 8, 64])
def test_skiplist_correct(dataset, span):
    data = SortedData(load(dataset, N, seed=71), name=dataset)
    sl = SkipList(data, span=span)
    rng = np.random.default_rng(1)
    qs = np.concatenate([
        rng.choice(data.keys, 200),
        np.asarray([data.keys.min(), data.keys.max()], dtype=data.keys.dtype),
    ])
    got = np.asarray([sl.lookup(q) for q in qs])
    assert np.array_equal(got, data.lower_bound_batch(qs))


def test_skiplist_height_and_size():
    data = SortedData(load("uden64", N, seed=71))
    fine = SkipList(data, span=2)
    coarse = SkipList(data, span=64)
    assert fine.height > coarse.height
    assert fine.size_bytes() > coarse.size_bytes()


def test_skiplist_rejects_tiny_span():
    data = SortedData(load("uden64", 100, seed=71))
    with pytest.raises(ValueError):
        SkipList(data, span=1)


def test_skiplist_tiny_inputs():
    for count in (1, 2, 7):
        keys = (np.arange(count, dtype=np.uint64) * 5).astype(np.uint64)
        sl = SkipList(SortedData(keys), span=4)
        for q in (0, 3, 5, 100):
            assert sl.lookup(q) == int(np.searchsorted(keys, q))


@settings(max_examples=40, deadline=None)
@given(keys=sorted_uint_arrays(min_size=1, max_size=300), seed=st.integers(0, 99))
def test_property_skiplist(keys, seed):
    sl = SkipList(SortedData(keys), span=4)
    for q in queries_for(keys, seed, count=10):
        assert sl.lookup(q) == int(np.searchsorted(keys, q, side="left"))


# ----------------------------------------------------------------------
# histogram model
# ----------------------------------------------------------------------
def test_histogram_drift_bounded_by_depth():
    keys = load("face64", N, seed=71)
    model = HistogramModel(keys, buckets=128)
    pred = model.predict_pos_batch(keys)
    truth = np.searchsorted(keys, keys, side="left")
    # equi-depth construction bounds the drift by one bucket depth
    assert np.abs(pred - truth).max() <= model.depth + 1


def test_histogram_scalar_batch_agree():
    keys = load("osmc64", N, seed=71)
    model = HistogramModel(keys, buckets=64)
    sample = np.concatenate([keys[::311], keys[::313] + 1])
    scalar = np.asarray([model.predict_pos(k) for k in sample])
    assert np.array_equal(scalar, model.predict_pos_batch(sample))


def test_histogram_with_shift_table_is_exact():
    keys = load("wiki64", N, seed=71)
    data = SortedData(keys)
    model = HistogramModel(keys, buckets=256)
    index = CorrectedIndex(data, model, ShiftTable.build(keys, model))
    qs = np.random.default_rng(2).choice(keys, 300)
    assert np.array_equal(index.lookup_batch(qs), data.lower_bound_batch(qs))


def test_histogram_bucket_cap_and_validation():
    keys = (np.arange(10, dtype=np.uint64) * 3).astype(np.uint64)
    model = HistogramModel(keys, buckets=1000)
    assert model.buckets == 10
    with pytest.raises(ValueError):
        HistogramModel(keys, buckets=0)


def test_histogram_monotone():
    keys = load("amzn64", N, seed=71)
    model = HistogramModel(keys, buckets=128)
    sample = np.sort(np.random.default_rng(0).choice(keys, 2000))
    assert model.check_monotone(sample)


# ----------------------------------------------------------------------
# set-associative cache
# ----------------------------------------------------------------------
def test_set_associative_basics():
    level = SetAssociativeCacheLevel(64, 1.0, ways=4)
    assert level.num_sets == 16
    assert not level.lookup(5)
    level.fill(5)
    assert level.lookup(5)
    assert 5 in level


def test_set_associative_conflict_eviction():
    level = SetAssociativeCacheLevel(8, 1.0, ways=2)  # 4 sets
    # lines 0, 4, 8 all map to set 0 (mod 4); two ways hold two of them
    level.fill(0)
    level.fill(4)
    level.fill(8)
    assert 0 not in level  # LRU within the set evicted line 0
    assert 4 in level and 8 in level
    assert len(level) == 2


def test_set_associative_validation():
    with pytest.raises(ValueError):
        SetAssociativeCacheLevel(0, 1.0)
    with pytest.raises(ValueError):
        SetAssociativeCacheLevel(8, 1.0, ways=0)


def test_build_hierarchy_both_modes():
    spec = MachineSpec.paper().scaled_for(N, 16)
    plain = build_hierarchy(spec, set_associative=False)
    assoc = build_hierarchy(spec, set_associative=True)
    assert plain.access(7) == assoc.access(7) == spec.dram_ns
    assert plain.access(7) == assoc.access(7) == spec.l1_ns


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_paper_fig8(capsys):
    rc = cli_main(["paper", "fig8", "--n", "8000", "--queries", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Figure 8 — face64" in out and "Figure 8 — osmc64" in out
    assert "paper fig8: claim holds" in out


def test_cli_paper_failing_claim_exits_1(monkeypatch, capsys):
    from dataclasses import replace

    from repro.bench.paper import PAPER, ClaimFailed

    def broken(result, n):
        raise ClaimFailed("incorrect cell face64/RBS")

    monkeypatch.setitem(PAPER, "fig6", replace(PAPER["fig6"], claim=broken))
    assert cli_main(["paper", "fig6", "--n", "8000"]) == 1
    out = capsys.readouterr().out
    assert "Figure 6" in out  # the table still prints
    assert "paper fig6: claim FAILED: incorrect cell face64/RBS" in out


def test_cli_datasets(capsys):
    rc = cli_main(["datasets", "--n", "8000"])
    assert rc == 0
    assert "wiki64" in capsys.readouterr().out


def test_cli_tune(capsys):
    rc = cli_main(["tune", "osmc64", "--n", "8000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ENABLE" in out


def test_cli_explain(capsys):
    rc = cli_main(["explain", "face64", "--n", "8000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "window" in out and "result" in out


def test_cli_serve_probe(capsys):
    rc = cli_main(["serve", "--n", "4000", "--port", "0", "--probe"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "serving uden64" in out and "probe: lookup" in out
