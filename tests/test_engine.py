"""Batch engine vs the scalar reference path: element-wise identical.

The acceptance bar for the engine is exactness, not plausibility: every
position a :class:`BatchExecutor` returns must be bit-identical to what
a per-query ``CorrectedIndex.lookup`` loop over the *unsharded* index
produces — for both served model families, both correction modes,
duplicate runs, and queries outside the key domain.  Every other shape
of the paper harness (four more families, the bare model) still answers
exactly through ``CorrectedIndex`` and is refused by name at every
engine entry point.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import IndexConfig
from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.range_query import RangeQueryEngine
from repro.core.records import SortedData
from repro.core.serialize import read_archive, write_archive
from repro.core.shift_table import ShiftTable
from repro.engine import LAYER_MODES, BatchExecutor, ShardedIndex
from repro.engine.durability import save_snapshot
from repro.engine.persist import SEGMENT_FORMAT_NAME
from repro.models import (
    MODEL_FACTORIES,
    InterpolationModel,
    PGMModel,
    RMIModel,
    make_model,
)

from helpers import PAPER_MODELS, queries_for, sorted_uint_arrays

#: the engine's shapes: two model families, always corrected
MODELS = list(MODEL_FACTORIES)
LAYERS = list(LAYER_MODES)
#: every shape of the paper harness, served or not
PAPER_MODEL_NAMES = ["linear", "rmi", "pgm", "radix_spline", "histogram",
                     "interpolation"]
PAPER_LAYERS = ["R", "S", None]


def unserved_name(model_kind: str, layer_mode) -> str | None:
    """The part of a shape the engine refuses (``None``: served)."""
    if model_kind not in MODELS:
        return repr(model_kind)
    if layer_mode not in LAYERS:
        return repr(layer_mode)
    return None


def scalar_reference(keys: np.ndarray, model_kind: str, layer_mode,
                     queries: np.ndarray) -> np.ndarray:
    """Per-query loop over one unsharded CorrectedIndex (ground truth)."""
    model = PAPER_MODELS[model_kind](keys)
    if layer_mode == "R":
        layer = ShiftTable.build(keys, model)
    elif layer_mode == "S":
        layer = CompactShiftTable.build(keys, model)
    else:
        layer = None
    index = CorrectedIndex(SortedData(keys), model, layer)
    return np.fromiter(
        (index.lookup(q) for q in queries), dtype=np.int64, count=len(queries)
    )


def duplicate_heavy_keys(seed: int, n: int = 3_000) -> np.ndarray:
    """Sorted keys where ~half the slots belong to fat duplicate runs."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1 << 44, size=n // 2, dtype=np.uint64)
    runs = np.repeat(rng.choice(base, 16), n // 32)
    keys = np.concatenate([base, runs])
    keys.sort()
    return keys


@pytest.mark.parametrize("model_kind", PAPER_MODEL_NAMES)
@pytest.mark.parametrize("layer_mode", PAPER_LAYERS)
@pytest.mark.parametrize("num_shards", [1, 5])
def test_point_lookups_match_scalar_loop(model_kind, layer_mode, num_shards):
    keys = duplicate_heavy_keys(seed=7)
    queries = queries_for(keys, rng_seed=1, count=200)
    want = scalar_reference(keys, model_kind, layer_mode, queries)
    unserved = unserved_name(model_kind, layer_mode)
    if unserved is not None:
        # the paper harness answers every shape; the engine refuses it
        assert np.array_equal(want, np.searchsorted(keys, queries,
                                                    side="left"))
        with pytest.raises(ValueError, match=re.escape(unserved)):
            ShardedIndex.build(keys, num_shards, model=model_kind,
                               layer=layer_mode)
        return

    index = ShardedIndex.build(keys, num_shards, model=model_kind,
                               layer=layer_mode)
    got = BatchExecutor(index).lookup_batch(queries)
    assert np.array_equal(got, want)
    # and both agree with the global ground truth
    assert np.array_equal(got, np.searchsorted(keys, queries, side="left"))


@pytest.mark.parametrize("layer_mode", PAPER_LAYERS)
def test_range_queries_match_scalar_engine(layer_mode):
    keys = duplicate_heavy_keys(seed=11)
    rng = np.random.default_rng(2)
    lows = rng.choice(keys, 150)
    highs = lows + rng.integers(0, 1 << 40, 150, dtype=np.uint64)
    # include inverted and empty ranges
    lows[:10], highs[:10] = highs[:10], lows[:10].copy()

    model = make_model("interpolation", keys)
    layer = (ShiftTable.build(keys, model) if layer_mode == "R"
             else CompactShiftTable.build(keys, model)
             if layer_mode == "S" else None)
    scalar_engine = RangeQueryEngine(CorrectedIndex(SortedData(keys), model, layer))
    want_counts = np.asarray(
        [scalar_engine.count(lo, hi) for lo, hi in zip(lows, highs)],
        dtype=np.int64,
    )
    want_scans = [scalar_engine.scan(lo, hi) for lo, hi in zip(lows, highs)]
    if layer_mode is None:
        # the bare model answers ranges in the paper harness only
        assert np.array_equal(want_counts, np.maximum(
            np.searchsorted(keys, highs) - np.searchsorted(keys, lows), 0))
        with pytest.raises(ValueError, match="layer None"):
            ShardedIndex.build(keys, 6, layer=None)
        return

    executor = BatchExecutor(
        ShardedIndex.build(keys, 6, model="interpolation", layer=layer_mode)
    )
    got_counts = executor.count_batch(lows, highs)
    assert np.array_equal(got_counts, want_counts)
    for got, want in zip(executor.scan_batch(lows, highs), want_scans):
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(
    keys=sorted_uint_arrays(min_size=1, max_size=300),
    seed=st.integers(0, 99),
    num_shards=st.integers(1, 12),
)
def test_property_engine_exact_on_arbitrary_arrays(keys, seed, num_shards):
    queries = queries_for(keys, rng_seed=seed, count=32)
    index = ShardedIndex.build(keys, num_shards)
    got = BatchExecutor(index).lookup_batch(queries)
    assert np.array_equal(got, np.searchsorted(keys, queries, side="left"))


@settings(max_examples=20, deadline=None)
@given(
    keys=sorted_uint_arrays(min_size=2, max_size=200),
    layer=st.sampled_from(LAYERS),
)
def test_property_engine_matches_scalar_loop(keys, layer):
    queries = queries_for(keys, rng_seed=5, count=24)
    want = scalar_reference(keys, "interpolation", layer, queries)
    got = BatchExecutor(
        ShardedIndex.build(keys, 3, layer=layer)
    ).lookup_batch(queries)
    assert np.array_equal(got, want)


def test_out_of_range_and_extreme_queries():
    keys = np.sort(
        np.random.default_rng(3).integers(1 << 20, 1 << 40, 5_000,
                                          dtype=np.uint64)
    )
    queries = np.asarray(
        [0, 1, keys[0] - 1, keys[0], keys[-1], keys[-1] + 1,
         np.iinfo(np.uint64).max],
        dtype=np.uint64,
    )
    for layer in LAYERS:
        got = BatchExecutor(
            ShardedIndex.build(keys, 4, layer=layer)
        ).lookup_batch(queries)
        assert np.array_equal(got, np.searchsorted(keys, queries, side="left"))


def test_scalar_mode_and_workers_agree_with_vectorized():
    keys = duplicate_heavy_keys(seed=23, n=2_000)
    queries = queries_for(keys, rng_seed=9, count=100)
    index = ShardedIndex.build(keys, 4)
    vectorized = BatchExecutor(index).lookup_batch(queries)
    scalar = BatchExecutor(index, mode="scalar").lookup_batch(queries)
    threaded = BatchExecutor(index, workers=3).lookup_batch(queries)
    assert np.array_equal(vectorized, scalar)
    assert np.array_equal(vectorized, threaded)


def test_empty_batch_and_bad_arguments():
    keys = np.arange(100, dtype=np.uint64)
    index = ShardedIndex.build(keys, 3)
    executor = BatchExecutor(index)
    assert executor.lookup_batch(np.empty(0, dtype=np.uint64)).size == 0
    assert executor.plan(np.empty(0, dtype=np.uint64)).shards_touched == 0
    with pytest.raises(ValueError):
        BatchExecutor(index, mode="telepathic")
    with pytest.raises(ValueError):
        executor.range_batch(keys[:3], keys[:2])


def test_plan_routes_every_query_once():
    keys = duplicate_heavy_keys(seed=31, n=4_000)
    queries = queries_for(keys, rng_seed=13, count=300)
    executor = BatchExecutor(ShardedIndex.build(keys, 7), workers=2)
    plan = executor.plan(queries)
    assert plan.num_queries == len(queries)
    assert sum(s.num_queries for s in plan.slices) == len(queries)
    assert 1 <= plan.shards_touched <= 7
    text = plan.describe()
    assert "mode=vectorized" in text and "workers=2" in text
    assert executor.explain(queries) == text


def test_mismatched_integer_query_dtypes_stay_exact():
    # int64 queries against uint64 keys above 2^53: a float64 promotion
    # or a wrapping astype would both silently corrupt positions
    keys = np.sort(
        np.random.default_rng(41).integers(1 << 61, 1 << 63, 5_000,
                                           dtype=np.uint64)
    )
    queries = np.concatenate(
        [keys[:500].astype(np.int64) + 1, np.asarray([-5, -1, 0], np.int64)]
    )
    want = np.searchsorted(keys, np.maximum(queries, 0).astype(np.uint64),
                           side="left")
    for num_shards in (1, 6):
        index = ShardedIndex.build(keys, num_shards)
        got = BatchExecutor(index).lookup_batch(queries)
        assert np.array_equal(got, want)
        # negative queries precede every unsigned key
        assert got[-3] == 0 and got[-2] == 0
        # the scalar reference path must not wrap either
        assert index.lookup(np.int64(-5)) == 0
        assert index.lookup((1 << 64) - 1) == len(keys)
        scalar = BatchExecutor(index, mode="scalar").lookup_batch(queries[-3:])
        assert np.array_equal(scalar, got[-3:])

    # uint64 queries against narrower uint32 keys: above-domain lanes
    # must answer n, not wrap into the key domain
    keys32 = np.sort(
        np.random.default_rng(43).integers(0, 1 << 32, 2_000,
                                           dtype=np.uint64)
    ).astype(np.uint32)
    wide = np.asarray([0, 1 << 20, (1 << 32) - 1, 1 << 40,
                       np.iinfo(np.uint64).max], dtype=np.uint64)
    got = BatchExecutor(ShardedIndex.build(keys32, 4)).lookup_batch(wide)
    assert np.array_equal(got, np.searchsorted(keys32, wide, side="left"))
    assert got[-1] == len(keys32) and got[-2] == len(keys32)


def test_executor_accepts_bare_corrected_index():
    keys = duplicate_heavy_keys(seed=37, n=1_500)
    model = make_model("interpolation", keys)
    index = CorrectedIndex(SortedData(keys), model, ShiftTable.build(keys, model))
    queries = queries_for(keys, rng_seed=17, count=80)
    got = BatchExecutor(index).lookup_batch(queries)
    assert np.array_equal(got, np.searchsorted(keys, queries, side="left"))


# ----------------------------------------------------------------------
# the engine path refuses every shape it does not serve, by name
# ----------------------------------------------------------------------
REFUSAL_KEYS = np.arange(2_000, dtype=np.uint64) * 5


def _snapshot_with_segment(tmp_path, edit):
    """A saved snapshot whose first segment is rewritten by ``edit`` and
    re-sealed with ``write_archive``: its checksum is valid, so a
    refusal is by name, not by checksum."""
    path = tmp_path / "snap"
    save_snapshot(ShardedIndex.build(REFUSAL_KEYS, 2), path)
    segment = sorted((path / "segments").iterdir())[0]
    manifest, arrays = read_archive(segment, SEGMENT_FORMAT_NAME)
    body = {k: v for k, v in manifest.items()
            if k not in ("format", "format_version")}
    edit(body["entry"])
    write_archive(segment, SEGMENT_FORMAT_NAME, body, arrays)
    return path


def _names_pgm(entry):
    entry["config"]["model"] = entry["model"]["kind"] = "pgm"


def _drops_the_layer(entry):
    entry["config"]["layer"] = entry["layer"]["kind"] = None


def _adopt(model, layer):
    data = SortedData(REFUSAL_KEYS)
    return BatchExecutor(CorrectedIndex(data, model, layer))


_PGM = PGMModel(REFUSAL_KEYS)
_DICT = IndexConfig().to_dict()


@pytest.mark.parametrize("attempt, name", [
    pytest.param(lambda tmp: IndexConfig(model="pgm"), "'pgm'",
                 id="config-model"),
    pytest.param(lambda tmp: IndexConfig(layer=None), "layer None",
                 id="config-layer"),
    pytest.param(lambda tmp: IndexConfig.from_dict({**_DICT, "model": "pgm"}),
                 "'pgm'", id="config-dict-model"),
    pytest.param(lambda tmp: IndexConfig.from_dict({**_DICT, "layer": None}),
                 "layer None", id="config-dict-layer"),
    pytest.param(lambda tmp: ShardedIndex.build(REFUSAL_KEYS, 2,
                                                model=InterpolationModel),
                 "InterpolationModel", id="build-callable"),
    pytest.param(lambda tmp: ShardedIndex.build(REFUSAL_KEYS, 2, layer=None),
                 "layer None", id="build-bare"),
    pytest.param(lambda tmp: _adopt(_PGM, ShiftTable.build(REFUSAL_KEYS,
                                                           _PGM)),
                 "PGMModel", id="adopt-pgm"),
    pytest.param(lambda tmp: _adopt(RMIModel(REFUSAL_KEYS, 8, root="cubic"),
                                    None),
                 "rmi with a cubic root", id="adopt-cubic-rmi"),
    pytest.param(lambda tmp: _adopt(InterpolationModel(REFUSAL_KEYS), None),
                 "layer None", id="adopt-bare"),
    pytest.param(lambda tmp: repro.open(_snapshot_with_segment(tmp,
                                                               _names_pgm)),
                 "'pgm'", id="open-pgm-segment"),
    pytest.param(lambda tmp: repro.open(
        _snapshot_with_segment(tmp, _drops_the_layer)),
                 "layer None", id="open-null-layer-segment"),
])
def test_engine_refuses_unserved_shapes_by_name(tmp_path, attempt, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        attempt(tmp_path)
