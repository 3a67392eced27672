"""Replication benchmark driver: sync cost, steady-state lag, exactness.

Two experiment axes, both oracle-gated (the driver counts mismatches
and the CLI exits nonzero on any):

* **full sync vs data size** — time :func:`repro.replica.follow` on an
  empty directory against leaders of increasing size; report wall
  time, shipped bytes and effective throughput.  Afterwards the
  replica's key array and a sampled ``lookup_many`` batch are checked
  against an ``np.searchsorted`` mirror.
* **steady-state lag vs write rate** — a writer thread applies
  single-key inserts/deletes at a target rate while a follower
  streams; the driver samples :meth:`ReplicaIndex.lag` and reports the
  mean/max LSN lag and the final catch-up.  The replica must converge
  to the exact oracle key set once the writer stops.

Used by ``benchmarks/bench_replica.py`` (CI runs it with ``--smoke``).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from ..api import Index
from ..replica import follow

__all__ = ["run_replica_bench"]


def _make_keys(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(1 << 40, n, replace=False).astype(np.uint64))


class _OracleLeader:
    """Durable leader plus the op log that makes its history checkable."""

    def __init__(self, root: Path, n: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.base = _make_keys(n, rng)
        self.index = Index.build(
            self.base, backend="gapped", num_shards=4,
            durable_dir=root, durability="async")
        self.index.durability.keep_generations = 2
        self.index.checkpoint()
        self.ops: list[tuple[str, int]] = []
        self._inserts = iter(
            (rng.choice(1 << 40, max(4 * n, 10_000), replace=False)
             .astype(np.uint64) | np.uint64(1 << 41)).tolist())
        self._deletes = iter(self.base.tolist())

    def write(self, count: int) -> None:
        for i in range(count):
            if i % 4 == 3:
                key = next(self._deletes)
                self.index.delete(np.uint64(key))
                self.ops.append(("delete", key))
            else:
                key = next(self._inserts)
                self.index.insert(np.uint64(key))
                self.ops.append(("insert", key))

    def oracle(self) -> np.ndarray:
        live = set(self.base.tolist())
        for op, key in self.ops:
            (live.add if op == "insert" else live.discard)(key)
        return np.sort(np.fromiter(live, dtype=np.uint64, count=len(live)))

    def close(self) -> None:
        self.index.close()


def _verify(replica, oracle: np.ndarray, queries: int,
            rng: np.random.Generator) -> int:
    """Mismatch count across the key array + a sampled lookup batch."""
    mismatches = 0
    if not np.array_equal(replica.keys, oracle):
        mismatches += 1
    qs = rng.integers(0, 1 << 42, queries).astype(np.uint64)
    want = np.searchsorted(oracle, qs, side="left")
    if not np.array_equal(replica.lookup_many(qs), want):
        mismatches += 1
    return mismatches


async def _sync_cell(n: int, ops: int, queries: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-repl-") as tmp:
        tmp = Path(tmp)
        leader = _OracleLeader(tmp / "leader", n, seed)
        try:
            leader.write(ops)
            async with leader.index.serve(addr=("127.0.0.1", 0)) as net:
                t0 = time.perf_counter()
                replica = await follow(net.address, tmp / "replica")
                await replica.wait_caught_up(timeout=120)
                sync_s = time.perf_counter() - t0
                mismatches = _verify(
                    replica, leader.oracle(), queries,
                    np.random.default_rng(seed + 1))
                row = {
                    "experiment": "full-sync",
                    "n": n,
                    "wal_ops": ops,
                    "sync_s": sync_s,
                    "ship_bytes": replica.bytes_synced,
                    "stream_bytes": replica.bytes_streamed,
                    "mb_per_s": (replica.bytes_synced / max(sync_s, 1e-9)
                                 / 1e6),
                    "mismatches": mismatches,
                }
                await replica.close()
                return row
        finally:
            leader.close()


async def _lag_cell(n: int, rate: int, duration_s: float, queries: int,
                    seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-repl-") as tmp:
        tmp = Path(tmp)
        leader = _OracleLeader(tmp / "leader", n, seed)
        stop = threading.Event()
        applied = [0]

        def writer() -> None:
            batch = max(1, rate // 100)
            period = batch / rate
            next_at = time.perf_counter()
            while not stop.is_set():
                leader.write(batch)
                applied[0] += batch
                next_at += period
                delay = next_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)

        try:
            async with leader.index.serve(addr=("127.0.0.1", 0)) as net:
                replica = await follow(net.address, tmp / "replica")
                thread = threading.Thread(target=writer)
                thread.start()
                samples: list[int] = []
                t_end = time.perf_counter() + duration_s
                try:
                    while time.perf_counter() < t_end:
                        await asyncio.sleep(0.05)
                        samples.append(replica.lag().lsns)
                finally:
                    stop.set()
                    thread.join()
                t0 = time.perf_counter()
                await replica.wait_caught_up(timeout=120)
                catch_up_s = time.perf_counter() - t0
                mismatches = _verify(
                    replica, leader.oracle(), queries,
                    np.random.default_rng(seed + 1))
                row = {
                    "experiment": "steady-lag",
                    "n": n,
                    "write_rate": rate,
                    "achieved_rate": applied[0] / duration_s,
                    "mean_lag_lsn": float(np.mean(samples)) if samples
                    else 0.0,
                    "max_lag_lsn": max(samples, default=0),
                    "catch_up_s": catch_up_s,
                    "streamed_records": replica.streamed_records,
                    "mismatches": mismatches,
                }
                await replica.close()
                return row
        finally:
            stop.set()
            leader.close()


def run_replica_bench(
    *,
    sizes: tuple[int, ...] = (50_000, 200_000),
    wal_ops: int = 2_000,
    rates: tuple[int, ...] = (500, 2_000),
    lag_n: int = 50_000,
    duration_s: float = 3.0,
    queries: int = 5_000,
    seed: int = 42,
) -> dict:
    """Run both experiments; returns ``{"rows": [...], "mismatches": int}``.

    Every cell is oracle-verified; ``mismatches`` is the total across
    all cells (callers gate CI on it being zero).
    """

    async def drive() -> list[dict]:
        rows = []
        for n in sizes:
            rows.append(await _sync_cell(n, wal_ops, queries, seed))
        for rate in rates:
            rows.append(await _lag_cell(
                lag_n, rate, duration_s, queries, seed))
        return rows

    rows = asyncio.run(drive())
    return {
        "rows": rows,
        "mismatches": sum(r["mismatches"] for r in rows),
        "cpu_count": os.cpu_count(),
    }
