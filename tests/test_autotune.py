"""Per-shard auto-tuning + shard merge: decisions are cost-consistent,
retune adapts to observed workloads, and every structural change
(rebuild, merge, split) preserves oracle exactness and run-alignment.
"""

from __future__ import annotations

import asyncio
import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AutoTuneConfig,
    BatchExecutor,
    ShardStats,
    ShardTuner,
    ShardedIndex,
    decision_from_config,
)
from repro.engine.autotune import MODEL_ACCESS_NS
from repro.models.factory import IndexDecision, build_corrected_index

from helpers import sorted_uint_arrays


def multi_segment_keys(n: int = 12_000, seed: int = 3) -> np.ndarray:
    """A uniform segment and a heavy-tailed segment in disjoint ranges."""
    rng = np.random.default_rng(seed)
    a = np.sort(rng.integers(0, 1 << 20, n // 2).astype(np.uint64))
    b = np.sort((np.float64(1 << 22)
                 + np.exp(rng.normal(12, 2.5, n - n // 2))).astype(np.uint64))
    return np.concatenate([a, b])


def assert_run_aligned(index: ShardedIndex) -> None:
    """Non-empty shards hold strictly increasing, non-straddling ranges."""
    previous_max = None
    for s in index._nonempty:
        shard_keys = index.shards[int(s)].keys()
        assert len(shard_keys) == index.shard_sizes()[int(s)]
        if previous_max is not None:
            # strict: a duplicate run never straddles two shards
            assert previous_max < shard_keys[0]
        previous_max = shard_keys[-1]


def assert_oracle_exact(index: ShardedIndex, queries: np.ndarray) -> None:
    live = np.sort(index.keys)
    got = BatchExecutor(index).lookup_batch(queries)
    assert np.array_equal(got, np.searchsorted(live, queries, side="left"))


# ----------------------------------------------------------------------
# the tuner itself
# ----------------------------------------------------------------------
def test_autotune_config_rejects_bad_spaces():
    with pytest.raises(ValueError, match="'lsm'"):
        AutoTuneConfig(backends=("lsm",))
    with pytest.raises(ValueError, match="non-empty"):
        AutoTuneConfig(backends=())
    # the model/layer search space is fixed: two families, R layer
    saved = AutoTuneConfig().to_dict()
    assert "models" not in saved and "layers" not in saved
    old = {**saved, "models": ["radix_spline"], "layers": [None]}
    assert AutoTuneConfig.from_dict(old) == AutoTuneConfig()


def test_decide_rejects_empty_slice():
    with pytest.raises(ValueError):
        ShardTuner().decide(np.empty(0, dtype=np.uint64))


def test_decision_is_never_costed_worse_than_alternatives():
    """The chosen config's mixed score is the minimum it considered."""
    tuner = ShardTuner()
    for seed in (0, 1, 2):
        keys = multi_segment_keys(4_000, seed)
        decision = tuner.decide(keys)
        scores = [row["mixed_ns"] for row in decision.considered]
        assert decision.predicted_ns == min(scores)
        assert len(decision.considered) == (
            len(MODEL_ACCESS_NS) * len(tuner.config.backends)
        )


def test_read_only_stats_pick_static_backend():
    tuner = ShardTuner()
    keys = multi_segment_keys(3_000)
    stats = ShardStats(reads=100_000, writes=0)
    assert tuner.decide(keys, stats).backend == "static"


def test_write_heavy_stats_pick_update_friendly_backend():
    tuner = ShardTuner()
    keys = multi_segment_keys(3_000)
    stats = ShardStats(reads=1_000, writes=1_000)
    assert tuner.decide(keys, stats).backend in ("gapped", "fenwick")


def test_sparse_stats_fall_back_to_default_write_fraction():
    """A couple of early writes must not stampede the backend choice."""
    tuner = ShardTuner()
    keys = multi_segment_keys(3_000)
    stats = ShardStats(reads=2, writes=5)  # below min_observations
    decision = tuner.decide(keys, stats)
    assert decision.write_fraction == 0.0
    assert decision.backend == "static"


def test_hysteresis_keeps_current_config_within_margin():
    """decide() returns the standing config unless the win clears the
    switch margin — the config label must match, with fresh scores."""
    tuner = ShardTuner(AutoTuneConfig(switch_margin=1.0))  # nothing wins
    keys = multi_segment_keys(3_000)
    free_choice = tuner.decide(keys)
    current = decision_from_config(
        type("C", (), {"model": "interpolation", "layer": "R",
                       "layer_partitions": None})(), "static",
    )
    held = tuner.decide(keys, current=current)
    assert held.label == "interpolation+R/static"
    assert np.isfinite(held.predicted_ns)
    # with no margin at all, the free choice wins again
    tuner = ShardTuner(AutoTuneConfig(switch_margin=0.0))
    assert tuner.decide(keys, current=current).label == free_choice.label


def test_hysteresis_protects_configs_outside_the_search_space():
    """A hand-picked backend the configured candidate set does not
    include (gapped, with only static searched) is scored as the
    incumbent — retune must not churn it while it is within margin."""
    keys = np.arange(0, 8_000, 2, dtype=np.uint64)
    index = ShardedIndex.build(keys, 2, backend="gapped")
    tuner = ShardTuner(AutoTuneConfig(backends=("static",),
                                      switch_margin=0.5))
    actions = index.retune(tuner)
    assert len(actions) == 2
    for action in actions:
        assert action["action"] == "keep"
        assert index.shards[action["shard"]].kind == "gapped"
        incumbent = [row for row in action["decision"].considered
                     if row["backend"] == "gapped"]
        assert len(incumbent) == 1  # priced, not skipped
    assert_oracle_exact(index, np.arange(0, 8_100, 3, dtype=np.uint64))


def test_curve_mode_honours_configured_layer_ns():
    """With a measured curve, the R-layer is priced at config.layer_ns,
    not tune()'s scalar 40 ns default (eq. 9 is additive in it)."""
    from repro.core.cost_model import LatencyCurve

    keys = multi_segment_keys(3_000)
    curve = LatencyCurve(np.asarray([1, 4096]), np.asarray([5.0, 300.0]))
    cheap = ShardTuner(AutoTuneConfig(curve=curve, layer_ns=0.0))
    dear = ShardTuner(AutoTuneConfig(curve=curve, layer_ns=500.0))
    ns_of = lambda tuner: {
        (row["model"], row["layer"]): row["read_ns"]
        for row in tuner.decide(keys).considered
    }
    cheap_ns, dear_ns = ns_of(cheap), ns_of(dear)
    assert {layer for _, layer in cheap_ns} == {"R"}
    for key in cheap_ns:
        assert dear_ns[key] == pytest.approx(cheap_ns[key] + 500.0)


def test_index_decision_feeds_build_corrected_index():
    keys = np.sort(np.random.default_rng(0).integers(
        0, 1 << 30, 2_000).astype(np.uint64))
    decision = IndexDecision(model="rmi", layer="S", layer_partitions=500)
    index = build_corrected_index(keys, decision)
    assert type(index.layer).__name__ == "CompactShiftTable"
    assert index.layer.num_partitions == 500
    assert type(index.model).__name__ == "RMIModel"
    assert decision.label() == "rmi+S"
    with pytest.raises(ValueError, match="layer None"):
        build_corrected_index(keys, IndexDecision(model="rmi", layer=None))


# ----------------------------------------------------------------------
# engine integration: build-time tuning and retune
# ----------------------------------------------------------------------
def test_build_auto_tune_labels_shards_and_stays_exact():
    keys = multi_segment_keys()
    index = ShardedIndex.build(keys, 4, auto_tune=True)
    for s in index._nonempty:
        assert index.shards[int(s)].decision_label is not None
    queries = np.random.default_rng(1).choice(keys, 4_000)
    assert_oracle_exact(index, queries)
    assert index.build_info()["auto_tune"] is True


def test_build_auto_tune_skips_tiny_shards():
    keys = np.arange(100, dtype=np.uint64)
    index = ShardedIndex.build(keys, 4, auto_tune=True)  # 25-key shards
    assert all(
        index.shards[int(s)].decision_label is None
        for s in index._nonempty
    )


def test_executor_and_writes_feed_shard_stats():
    keys = multi_segment_keys(2_000)
    index = ShardedIndex.build(keys, 2)
    executor = BatchExecutor(index)
    executor.lookup_batch(np.random.default_rng(0).choice(keys, 500))
    index.insert(np.uint64(7))
    reads = sum(index.shards[int(s)].stats.reads for s in index._nonempty)
    writes = sum(index.shards[int(s)].stats.writes for s in index._nonempty)
    assert reads == 500
    assert writes == 1
    index.lookup(keys[0])  # scalar path counts too
    reads = sum(index.shards[int(s)].stats.reads for s in index._nonempty)
    assert reads == 501


def test_retune_moves_write_hot_shard_off_static():
    keys = multi_segment_keys()
    index = ShardedIndex.build(keys, 4, auto_tune=True, backend="static")
    rng = np.random.default_rng(5)
    hot = int(index._nonempty[0])
    lo = int(index.shards[hot].min_key())
    for key in rng.integers(lo, lo + 1000, 400).astype(np.uint64):
        index.insert(key)
    events = []
    index.add_write_listener(events.append)
    actions = index.retune()
    assert any(a["action"] == "rebuild" for a in actions)
    assert index.shards[hot].kind in ("gapped", "fenwick")
    assert index.shards[hot].origin == "retune"
    # retune preserved content and announced itself without a span
    assert [e.kind for e in events] == ["retune"]
    assert events[0].span is None
    queries = rng.choice(keys, 2_000)
    assert_oracle_exact(index, queries)
    assert_run_aligned(index)


def test_retune_works_without_a_standing_tuner():
    keys = multi_segment_keys(6_000)
    index = ShardedIndex.build(keys, 2)  # no auto_tune at build
    actions = index.retune()
    assert actions, "a default ShardTuner should still visit shards"
    assert_oracle_exact(index, np.random.default_rng(0).choice(keys, 1_000))


def test_plan_reports_decision_and_origin_columns():
    keys = multi_segment_keys(6_000)
    index = ShardedIndex.build(keys, 2, auto_tune=True)
    executor = BatchExecutor(index)
    plan = executor.plan(np.random.default_rng(0).choice(keys, 64))
    assert all(s.decision is not None for s in plan.slices)
    assert {s.origin for s in plan.slices} == {"build"}
    text = plan.describe()
    assert "tuned=" in text


# ----------------------------------------------------------------------
# shard merge
# ----------------------------------------------------------------------
def test_delete_path_merges_near_empty_shard():
    keys = np.arange(0, 400, dtype=np.uint64)
    index = ShardedIndex.build(keys, 4)  # 100-key shards
    before = index.num_shards
    # shrink shard 0 below a quarter of the target: it must coalesce
    for value in range(80):
        index.delete(np.uint64(value))
    assert index.num_merges >= 1
    assert index.num_shards < before
    assert_run_aligned(index)
    live = np.arange(80, 400, dtype=np.uint64)
    queries = np.concatenate([live, [np.uint64(0)], [np.uint64(1000)]])
    assert_oracle_exact(index, queries)
    info = index.build_info()
    assert info["merges"] == index.num_merges


def test_merge_skipped_when_combined_would_resplit():
    """No churn: a merge that would immediately re-split is not taken."""
    keys = np.arange(0, 300, dtype=np.uint64)
    index = ShardedIndex.build(keys, 3)  # target 100
    # grow the middle shard close to the 2x split trigger
    for value in range(95):
        index.insert(np.uint64(150))
    # drain shard 0 to a quarter of the target: the only live neighbour
    # is fat (195 keys), so merging now would cross the 2x split
    # trigger — the merge must be skipped
    for value in range(75):
        index.delete(np.uint64(value))
    assert index.num_merges == 0
    # keep draining: once the combination fits under the trigger the
    # merge fires, and it never causes a follow-up split (no churn)
    for value in range(75, 99):
        index.delete(np.uint64(value))
    assert index.num_merges == 1
    assert index.num_splits == 0
    assert_run_aligned(index)
    assert_oracle_exact(index, np.arange(0, 320, dtype=np.uint64))


def test_retune_merge_pass_coalesces_cold_small_shards():
    keys = np.arange(0, 4_000, dtype=np.uint64)
    index = ShardedIndex.build(keys, 4)  # target 1000
    for value in range(600):  # shard 0 at 400 keys: below merge_fraction
        index.delete(np.uint64(value))
    assert index.num_merges == 0  # 400 > target//4: delete path left it
    actions = index.retune(ShardTuner(AutoTuneConfig(min_shard_keys=10**9)))
    assert any(a["action"] == "merge" for a in actions)
    assert index.num_merges >= 1
    assert_run_aligned(index)
    assert_oracle_exact(index, np.arange(0, 4_100, 3, dtype=np.uint64))


def test_merged_shard_sums_workload_counters():
    keys = np.arange(0, 400, dtype=np.uint64)
    index = ShardedIndex.build(keys, 2)
    executor = BatchExecutor(index)
    executor.lookup_batch(keys)  # 200 reads per shard
    for value in range(180):
        index.delete(np.uint64(value))
    assert index.num_merges == 1
    survivor = index.shards[int(index._nonempty[0])]
    assert survivor.stats.reads == 400
    assert survivor.stats.writes == 180
    assert survivor.origin == "merge"


@pytest.mark.parametrize("backend", ["static", "gapped", "fenwick"])
@settings(max_examples=25, deadline=None)
@given(
    keys=sorted_uint_arrays(min_size=24, max_size=160, max_value=500),
    ops=st.lists(st.tuples(st.sampled_from(["insert", "delete", "lookup",
                                            "range", "retune"]),
                           st.integers(0, 520)),
                 min_size=10, max_size=60),
)
def test_property_merge_and_retune_stay_exact(backend, keys, ops):
    """Interleaved insert/delete/lookup/range with merges and retunes:
    every answer matches the oracle, run-alignment always holds."""
    index = ShardedIndex.build(keys, 4, backend=backend)
    executor = BatchExecutor(index)
    reference = sorted(map(int, keys))
    tuner = ShardTuner(AutoTuneConfig(min_shard_keys=10**9))  # merge-only

    for op, value in ops:
        if op == "insert":
            index.insert(np.uint64(value))
            bisect.insort(reference, value)
        elif op == "delete":
            if not reference:
                continue
            victim = reference[value % len(reference)]
            index.delete(np.uint64(victim))
            reference.remove(victim)
        elif op == "retune":
            index.retune(tuner)
        live = np.asarray(reference, dtype=np.uint64)
        if op == "lookup":
            got = executor.lookup_batch(np.asarray([value], dtype=np.uint64))
            want = np.searchsorted(live, np.uint64(value), side="left")
            assert got[0] == want
        elif op == "range":
            lo, hi = np.uint64(value), np.uint64(value + 37)
            count = executor.count_batch(np.asarray([lo]), np.asarray([hi]))
            want = (np.searchsorted(live, hi, side="left")
                    - np.searchsorted(live, lo, side="left"))
            assert count[0] == max(want, 0)
        if len(reference):
            assert_run_aligned(index)

    live = np.asarray(reference, dtype=np.uint64)
    queries = np.arange(0, 560, 7, dtype=np.uint64)
    got = executor.lookup_batch(queries)
    assert np.array_equal(got, np.searchsorted(live, queries, side="left"))


# ----------------------------------------------------------------------
# serving integration
# ----------------------------------------------------------------------
def test_server_retune_preserves_cached_answers():
    from repro.serve import IndexServer

    async def scenario():
        keys = multi_segment_keys(4_000)
        index = ShardedIndex.build(keys, 2, auto_tune=True)
        async with IndexServer(index) as server:
            lo, hi = keys[100], keys[3_000]
            count = await server.range(lo, hi)
            actions = await server.retune()
            assert isinstance(actions, list)
            # retune preserves the logical key sequence: the cached
            # range answer is still served, and still correct
            assert await server.range(lo, hi) == count
            assert server.cache.range_hits >= 1
            assert server.stats.retunes == 1

    asyncio.run(scenario())
