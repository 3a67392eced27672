#!/usr/bin/env python
"""Replication tier: full-sync cost and steady-state streaming lag.

Standalone script (not a pytest-benchmark target) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_replica.py --smoke

Two experiments (see :mod:`repro.bench.replica`): full-sync wall time
vs leader size, and steady-state replica lag vs sustained write rate.
Each leader is a durable index behind ``Index.serve(addr=...)``; its
followers connect to that serving address.
Every cell verifies the replica against a live ``np.searchsorted``
oracle — the script exits nonzero on a single mismatch, which is the
CI gate.  Results land in ``BENCH_replica.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

try:
    from repro.bench.replica import run_replica_bench
    from repro.bench.reporting import format_table
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.bench.replica import run_replica_bench
    from repro.bench.reporting import format_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=[50_000, 200_000],
                        help="leader sizes for the full-sync experiment")
    parser.add_argument("--wal-ops", type=int, default=2_000,
                        help="WAL tail length behind each full sync")
    parser.add_argument("--rates", type=int, nargs="*",
                        default=[500, 2_000],
                        help="write rates (ops/s) for the lag experiment")
    parser.add_argument("--lag-n", type=int, default=50_000,
                        help="leader size for the lag experiment")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="seconds of sustained writes per lag cell")
    parser.add_argument("--queries", type=int, default=5_000,
                        help="oracle-verified lookups per cell")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", default="BENCH_replica.json",
                        metavar="PATH", dest="json_path",
                        help="result artifact path ('-' disables)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration (fast, still verified)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.sizes = [min(s, 20_000) for s in args.sizes[:1]] or [20_000]
        args.rates = args.rates[:1]
        args.wal_ops = min(args.wal_ops, 500)
        args.lag_n = min(args.lag_n, 20_000)
        args.duration = min(args.duration, 1.0)
        args.queries = min(args.queries, 2_000)

    payload = run_replica_bench(
        sizes=tuple(args.sizes),
        wal_ops=args.wal_ops,
        rates=tuple(args.rates),
        lag_n=args.lag_n,
        duration_s=args.duration,
        queries=args.queries,
        seed=args.seed,
    )

    sync_rows = [r for r in payload["rows"]
                 if r["experiment"] == "full-sync"]
    lag_rows = [r for r in payload["rows"]
                if r["experiment"] == "steady-lag"]
    if sync_rows:
        print(format_table(
            ["n", "wal ops", "sync s", "ship MB", "MB/s", "mismatches"],
            [[r["n"], r["wal_ops"], r["sync_s"],
              r["ship_bytes"] / 1e6, r["mb_per_s"], r["mismatches"]]
             for r in sync_rows],
            title="full sync vs leader size",
            float_digits=2,
        ))
    if lag_rows:
        print(format_table(
            ["n", "rate/s", "achieved/s", "mean lag", "max lag",
             "catch-up s", "mismatches"],
            [[r["n"], r["write_rate"], r["achieved_rate"],
              r["mean_lag_lsn"], r["max_lag_lsn"], r["catch_up_s"],
              r["mismatches"]]
             for r in lag_rows],
            title="steady-state lag vs write rate",
            float_digits=2,
        ))

    if args.json_path and args.json_path != "-":
        Path(args.json_path).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.json_path}")

    if payload["mismatches"]:
        print(f"ORACLE MISMATCHES: {payload['mismatches']}",
              file=sys.stderr)
        return 1
    print("every replica oracle-verified: zero mismatches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
