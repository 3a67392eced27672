"""Per-shard auto-tuning benchmark: does §3.9-per-shard beat one global
config on a skewed multi-distribution dataset?

The workload is built so that no single hand-picked configuration is
right everywhere: the key space is a concatenation of *disjoint
segments drawn from different distributions* (dense uniform, lognormal,
clustered real-world surrogate), so range shards covering different
segments face very different local CDFs.  The sweep measures:

* every **fixed global config** — one model/layer for all shards (the
  engine's only option before auto-tuning);
* the **auto-tuned engine** — ``ShardedIndex.build(auto_tune=True)``
  plus a workload-observing warmup and a ``retune()`` pass, so each
  shard runs the model/backend the §3.9 cost model picked for *its*
  slice.

Every cell is verified against a ``searchsorted`` oracle (the driver
raises on any mismatch), and the auto-tuned row reports its per-shard
decisions.  Exposed as ``python -m repro autotune-bench`` and smoked in
CI via ``benchmarks/bench_autotune.py --smoke``.
"""

from __future__ import annotations

import time

import numpy as np

from ..datasets import load
from ..engine import BatchExecutor, ShardedIndex
from .reporting import format_table

#: The ``--smoke`` parameter clamps shared by the CLI and the
#: standalone benchmark script (fast CI config, still oracle-verified).
SMOKE_LIMITS = {"n": 45_000, "num_queries": 20_000, "repeats": 2}

#: Fixed global (model, layer) configurations the sweep compares against.
DEFAULT_GLOBAL_CONFIGS = (
    ("interpolation", "R"),
    ("rmi", "R"),
)

#: Dataset segments of the skewed multi-distribution key space.
SEGMENT_DATASETS = ("uden64", "logn64", "face64")


def multi_distribution_keys(
    n: int, seed: int = 42, segments: tuple[str, ...] = SEGMENT_DATASETS
) -> np.ndarray:
    """A sorted uint64 key array whose ranges follow different CDFs.

    Each segment is generated by its own dataset loader, normalised to
    start at zero, then rebased so segments occupy disjoint ascending
    key ranges separated by a gap (one segment-width of empty key
    space).  Range shards therefore specialise: a shard inside the
    uniform segment sees a near-linear CDF, one inside the lognormal
    segment a heavy tail, and so on — the setting where per-shard model
    selection has something to win.
    """
    if n < len(segments):
        raise ValueError(f"need at least {len(segments)} keys, got {n}")
    per = n // len(segments)
    parts: list[np.ndarray] = []
    base = np.uint64(0)
    for i, name in enumerate(segments):
        count = per if i < len(segments) - 1 else n - per * (len(segments) - 1)
        seg = load(name, count, seed + i).astype(np.uint64)
        seg = seg - seg.min()
        width = np.uint64(int(seg.max()) + 1)
        parts.append(base + seg)
        base = base + width + width  # one segment-width gap between segments
    return np.concatenate(parts)


def _measure_qps(
    executor: BatchExecutor,
    queries: np.ndarray,
    batch_size: int,
    repeats: int,
) -> float:
    """Best-of-``repeats`` sustained lookup throughput (queries/sec)."""
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a in range(0, len(queries), batch_size):
            executor.lookup_batch(queries[a : a + batch_size])
        elapsed = time.perf_counter() - t0
        best = max(best, len(queries) / elapsed)
    return best


def _verify(executor: BatchExecutor, live: np.ndarray,
            queries: np.ndarray, label: str) -> None:
    """Raise unless every engine answer matches the searchsorted oracle."""
    got = executor.lookup_batch(queries)
    want = np.searchsorted(live, queries, side="left")
    mismatches = int((got != want).sum())
    if mismatches:
        raise AssertionError(
            f"{label}: {mismatches}/{len(queries)} answers diverged "
            "from the oracle"
        )


def run_autotune_bench(
    n: int = 200_000,
    num_shards: int = 9,
    num_queries: int = 100_000,
    batch_size: int = 8192,
    repeats: int = 3,
    global_configs: tuple[tuple[str, str], ...] = DEFAULT_GLOBAL_CONFIGS,
    seed: int = 42,
    workers: int = 1,
    min_ratio: float | None = 0.8,
) -> dict[str, object]:
    """Run the fixed-global vs auto-tuned sweep; returns rows + decisions.

    ``min_ratio`` guards the headline claim: the auto-tuned engine's
    throughput must reach at least that fraction of the best fixed
    global config (the slack absorbs timer noise — "matches or beats,
    within noise"); pass ``None`` to skip the enforcement.  Raises
    ``AssertionError`` on an oracle mismatch or a missed ratio.

    Returned dict: ``rows`` (one dict per config: name, qps, ns/lookup,
    speedup vs worst fixed, exact flag), ``decisions`` (per-shard tuner
    decisions of the auto-tuned index), ``auto_vs_best_fixed`` (the
    throughput ratio), and the dataset/shape parameters.
    """
    keys = multi_distribution_keys(n, seed)
    rng = np.random.default_rng(seed + 100)
    # query mix: hits across all segments plus uniform misses (which
    # also exercise the inter-segment gaps)
    queries = np.concatenate([
        rng.choice(keys, int(num_queries * 0.9)),
        rng.integers(0, int(keys.max()), num_queries - int(num_queries * 0.9),
                     dtype=np.uint64),
    ])
    rng.shuffle(queries)

    rows: list[dict[str, object]] = []
    for model, layer in global_configs:
        index = ShardedIndex.build(
            keys, num_shards, model=model, layer=layer,
            name=f"fixed-{model}", backend="static",
        )
        with BatchExecutor(index, workers=workers) as executor:
            _verify(executor, keys, queries, f"fixed {model}+{layer}")
            qps = _measure_qps(executor, queries, batch_size, repeats)
        rows.append({
            "config": f"fixed {model}+{layer}",
            "qps": qps,
            "ns_per_lookup": 1e9 / qps,
            "shards": index.num_shards,
            "exact": True,
        })

    auto = ShardedIndex.build(
        keys, num_shards, name="auto", backend="static", auto_tune=True,
    )
    with BatchExecutor(auto, workers=workers) as executor:
        # observe a workload slice, then let the tuner revisit backends
        executor.lookup_batch(queries[: min(len(queries), 4 * batch_size)])
        auto.retune()
        _verify(executor, keys, queries, "auto-tuned")
        qps = _measure_qps(executor, queries, batch_size, repeats)
        decisions = [
            {
                "shard": int(s),
                "keys": len(auto.shards[int(s)]),
                "decision": auto.shards[int(s)].decision_label,
                "strategy": auto.shards[int(s)].strategy(),
            }
            for s in auto._nonempty
        ]
    rows.append({
        "config": "auto-tuned (per shard)",
        "qps": qps,
        "ns_per_lookup": 1e9 / qps,
        "shards": auto.num_shards,
        "exact": True,
    })

    fixed = [r["qps"] for r in rows[:-1]]
    best_fixed, worst_fixed = max(fixed), min(fixed)
    for r in rows:
        r["speedup_vs_worst_fixed"] = r["qps"] / worst_fixed
    ratio = rows[-1]["qps"] / best_fixed
    if min_ratio is not None and ratio < min_ratio:
        raise AssertionError(
            f"auto-tuned throughput fell to {ratio:.2f}x of the best "
            f"fixed config (required >= {min_ratio})"
        )
    return {
        "rows": rows,
        "decisions": decisions,
        "auto_vs_best_fixed": ratio,
        "n": len(keys),
        "num_queries": len(queries),
        "num_shards": num_shards,
        "segments": SEGMENT_DATASETS,
    }


def render_report(out: dict[str, object]) -> str:
    """Text rendering of a :func:`run_autotune_bench` result.

    Shared by ``python -m repro autotune-bench`` and
    ``benchmarks/bench_autotune.py`` so the two drivers cannot drift:
    the config table, the per-shard tuner decisions, and the headline
    auto-vs-best-fixed ratio line.
    """
    table = [
        [r["config"], r["qps"], r["ns_per_lookup"], r["shards"],
         r["speedup_vs_worst_fixed"], r["exact"]]
        for r in out["rows"]
    ]
    lines = [format_table(
        ["config", "qps", "ns/lookup", "shards", "speedup vs worst",
         "exact"],
        table,
        title=(f"auto-tuning — {'+'.join(out['segments'])}, "
               f"n={out['n']:,}, K={out['num_shards']}"),
        float_digits=1,
    )]
    lines.append("\nper-shard tuner decisions (auto-tuned index):")
    for d in out["decisions"]:
        lines.append(f"  shard {d['shard']:>3}: {d['keys']:>9,} keys -> "
                     f"{d['decision']}  [{d['strategy']}]")
    lines.append(f"\nauto-tuned vs best fixed global config: "
                 f"{out['auto_vs_best_fixed']:.2f}x "
                 f"(every config oracle-verified, zero mismatches)")
    return "\n".join(lines)
