"""Auto-tuning quickstart: the §3.9 cost model picks per-shard configs.

Builds a key space whose ranges follow *different* distributions, lets
``ShardedIndex.build(auto_tune=True)`` choose each shard's model family
(interpolation or RMI, each R-corrected) from its local slice, then drives a write-heavy workload
at one region and calls ``retune()`` — the tuner sees the observed
read/write mix and moves the hot shard onto a write-optimised backend.
Every answer is checked against ``np.searchsorted`` on the live keys.

Run:  PYTHONPATH=src python examples/autotune_quickstart.py
"""

import numpy as np

from repro.bench.autotune import multi_distribution_keys
from repro.engine import BatchExecutor, ShardedIndex


def check(executor, live, queries) -> None:
    """Raise unless the engine matches the searchsorted oracle."""
    got = executor.lookup_batch(queries)
    assert np.array_equal(got, np.searchsorted(live, queries, side="left"))


def main() -> None:
    # 1. a skewed multi-distribution key space: dense-uniform, lognormal
    #    and clustered segments occupy disjoint key ranges
    keys = multi_distribution_keys(60_000, seed=7)
    rng = np.random.default_rng(7)

    # 2. build with auto-tuning: each shard gets the model family the
    #    §3.9 cost model predicts fastest for ITS slice
    index = ShardedIndex.build(keys, num_shards=6, auto_tune=True)
    executor = BatchExecutor(index)
    print("per-shard decisions at build time:")
    for s in index._nonempty:
        shard = index.shards[int(s)]
        print(f"  shard {int(s)}: {len(shard):>7,} keys -> "
              f"{shard.decision_label}")

    queries = rng.choice(keys, 20_000)
    check(executor, keys, queries)
    print("\nread phase: 20,000 lookups, oracle-exact")

    # 3. hammer one region with writes; the engine's per-shard counters
    #    record the mix (reads from the executor, writes from routing)
    hot_shard = int(index._nonempty[0])
    hot_min = index.shards[hot_shard].min_key()
    for key in rng.integers(int(hot_min), int(hot_min) + 10_000,
                            2_000).astype(np.uint64):
        index.insert(key)

    # 4. retune: the hot shard's observed write fraction justifies a
    #    write-optimised backend; cold shards keep their configs
    actions = index.retune()
    print("\nretune actions:")
    for a in actions:
        print(f"  shard {a['shard']}: {a['action']:>8} -> {a['label']}")

    live = np.sort(index.keys)
    check(executor, live, queries)
    print("\npost-retune: same queries, still oracle-exact")
    print("\nEXPLAIN after retune (origin + tuner-decision columns):")
    print(executor.explain(queries[:512]))


if __name__ == "__main__":
    main()
