#!/usr/bin/env python
"""Durability economics: WAL write cost, checkpoint stalls, recovery time.

Three acceptance drives for the durability layer
(:mod:`repro.engine.durability`):

1. **Write throughput, durability on vs. off** — the same mixed
   insert/delete schedule runs against a plain engine and against
   WAL-logged engines under each fsync policy (``async`` / ``group`` /
   ``always``); every variant must end oracle-identical to the plain
   run.  This prices the logging itself (buffered appends) apart from
   the fsyncs (the real cost).
2. **Checkpoint stalls under write load** — a writer thread inserts
   continuously while the incremental ``checkpoint()`` flushes the
   index (lock held per shard snapshot only).  The writer's longest
   observed stall must stay within a small factor of **one shard's
   flush** — the acceptance claim.
3. **Recovery time vs. WAL length** — fixed checkpoint, growing WAL
   tail; recovery replays the tail into pending-update buffers without
   refitting, so the cost should scale with the tail, not the index.
   Every recovered index is verified key-for-key against the oracle.

    PYTHONPATH=src python benchmarks/bench_wal.py            # full
    PYTHONPATH=src python benchmarks/bench_wal.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

try:
    import repro  # noqa: F401  (path check only)
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.engine import ShardedIndex  # noqa: E402
from repro.engine.durability import DurabilityManager  # noqa: E402
from repro.engine.persist import (  # noqa: E402
    encode_shard_state,
    save_shard_segment,
)


def build_index(n: int, shards: int, seed: int) -> ShardedIndex:
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(1 << 42, n, replace=False).astype(np.uint64))
    return ShardedIndex.build(keys, shards, backend="gapped", name="walbench")


def make_schedule(index: ShardedIndex, ops: int, seed: int):
    """A reproducible mixed schedule: ~70% inserts, 30% deletes."""
    rng = np.random.default_rng(seed)
    live = [int(k) for k in rng.choice(index.keys, ops, replace=False)]
    fresh = iter(
        int(k) for k in rng.choice(1 << 42, 2 * ops, replace=False)
        .astype(np.uint64)
    )
    schedule = []
    for i in range(ops):
        if i % 10 < 7:
            schedule.append(("insert", next(fresh)))
        else:
            schedule.append(("delete", live.pop()))
    return schedule


def apply_schedule(index: ShardedIndex, schedule) -> float:
    t0 = time.perf_counter()
    for op, key in schedule:
        if op == "insert":
            index.insert(np.uint64(key))
        else:
            index.delete(np.uint64(key))
    return time.perf_counter() - t0


def phase_throughput(args, results: list[str]) -> None:
    schedule = make_schedule(build_index(args.n, args.shards, args.seed),
                             args.ops, args.seed + 1)
    reference = None
    rows = []
    for mode in ("off", "async", "group", "always"):
        index = build_index(args.n, args.shards, args.seed)
        manager = None
        tmp = None
        if mode != "off":
            tmp = Path(tempfile.mkdtemp(prefix="walbench-"))
            manager = DurabilityManager.create(index, tmp / "db", sync=mode)
        seconds = apply_schedule(index, schedule)
        if manager is not None:
            manager.commit()
            manager.close()
        final = np.sort(index.keys)
        if reference is None:
            reference = final
        elif not np.array_equal(final, reference):
            raise AssertionError(
                f"durability={mode} diverged from the plain engine"
            )
        rows.append((mode, args.ops / seconds, seconds))
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    off = rows[0][1]
    results.append(f"write throughput ({args.ops:,} mixed ops, "
                   f"n={args.n:,}, K={args.shards}):")
    for mode, ops_s, seconds in rows:
        results.append(
            f"  durability={mode:<7} {ops_s:>12,.0f} ops/s "
            f"({seconds:.2f}s, {off / ops_s:.2f}x vs off)"
        )


def phase_checkpoint_stall(args, results: list[str]) -> tuple[float, float]:
    """Max writer stall under an incremental checkpoint.

    Returns ``(incremental_stall, one_shard_flush)`` for enforcement.
    """
    index = build_index(args.n, args.shards, args.seed + 2)
    tmp = Path(tempfile.mkdtemp(prefix="walbench-"))
    manager = DurabilityManager.create(index, tmp / "db", sync="async")

    # the acceptance yardstick: one shard, snapshotted and flushed the
    # way the checkpointer does it (largest shard = worst case)
    biggest = max(
        (s for s in range(index.num_shards) if index.shards[s] is not None),
        key=lambda s: len(index.shards[s]),
    )
    t0 = time.perf_counter()
    entry, arrays = encode_shard_state(index.shards[biggest])
    save_shard_segment(tmp / "yardstick.npz", entry, arrays,
                       shard_id=biggest, generation=0, flushed_lsn=0,
                       length=len(index.shards[biggest]))
    one_shard_flush = time.perf_counter() - t0

    fresh = iter(
        int(k) for k in np.random.default_rng(args.seed + 3)
        .choice(1 << 42, 500_000, replace=False).astype(np.uint64)
    )
    stop = threading.Event()
    worst = 0.0

    def writer() -> None:
        nonlocal worst
        while not stop.is_set():
            t0 = time.perf_counter()
            index.insert(np.uint64(next(fresh)))
            worst = max(worst, time.perf_counter() - t0)

    thread = threading.Thread(target=writer)
    thread.start()
    time.sleep(0.05)  # let the writer reach steady state
    t0 = time.perf_counter()
    manager.checkpoint()
    flush_seconds = time.perf_counter() - t0
    time.sleep(0.05)
    stop.set()
    thread.join()
    manager.close()
    shutil.rmtree(tmp, ignore_errors=True)

    results.append(
        f"checkpoint stalls under write load (n={args.n:,}, "
        f"K={args.shards}; one-shard flush = {one_shard_flush * 1e3:.1f} ms):"
    )
    results.append(
        f"  incremental checkpoint: flush {flush_seconds * 1e3:>8.1f} ms, "
        f"max writer stall {worst * 1e3:>8.1f} ms"
    )
    return worst, one_shard_flush


def phase_recovery(args, results: list[str]) -> None:
    lengths = [500, 2_000] if args.smoke else [1_000, 10_000, 50_000]
    results.append("recovery time vs. WAL length (checkpoint held fixed):")
    for ops in lengths:
        index = build_index(args.n, args.shards, args.seed + 4)
        tmp = Path(tempfile.mkdtemp(prefix="walbench-"))
        manager = DurabilityManager.create(index, tmp / "db", sync="async")
        schedule = make_schedule(index, ops, args.seed + 5)
        apply_schedule(index, schedule)
        manager.commit()
        crash = tmp / "crash"
        shutil.copytree(tmp / "db", crash)  # crash image: manager not closed
        manager.close()

        t0 = time.perf_counter()
        recovered = DurabilityManager.recover(crash)
        seconds = time.perf_counter() - t0
        if not np.array_equal(np.sort(recovered.index.keys),
                              np.sort(index.keys)):
            raise AssertionError(
                f"recovery after {ops} WAL records lost writes"
            )
        results.append(
            f"  {ops:>7,} records: {seconds * 1e3:>8.1f} ms "
            f"({recovered.replayed:,} replayed, "
            f"{ops / max(seconds, 1e-9):,.0f} records/s)"
        )
        recovered.close()
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=400_000,
                        help="keys in the base index")
    parser.add_argument("--ops", type=int, default=20_000,
                        help="mixed ops in the throughput phase")
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--stall-factor", type=float, default=4.0,
                        help="allowed max-stall / one-shard-flush ratio "
                             "(the acceptance criterion, with headroom "
                             "for scheduler noise)")
    parser.add_argument("--no-enforce", action="store_true",
                        help="report the stall ratio without enforcing it")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: small, still verified")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 60_000)
        args.ops = min(args.ops, 3_000)
        args.shards = min(args.shards, 8)

    results: list[str] = []
    phase_throughput(args, results)
    # a busy box can inflate one stall sample: re-measure before failing
    for attempt in range(3):
        stall, yardstick = phase_checkpoint_stall(args, results)
        if args.no_enforce or stall <= args.stall_factor * max(
            yardstick, 1e-3
        ):
            break
        if attempt == 2:
            print("\n".join(results))
            raise AssertionError(
                f"incremental checkpoint stalled a writer for "
                f"{stall * 1e3:.1f} ms — more than {args.stall_factor}x "
                f"one shard's flush ({yardstick * 1e3:.1f} ms)"
            )
    phase_recovery(args, results)
    print("\n".join(results))
    print("all recovered and logged variants oracle-identical ✓")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
