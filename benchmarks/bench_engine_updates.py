#!/usr/bin/env python
"""Updatable engine: insert throughput + read latency vs write fraction.

Standalone script (not a pytest-benchmark target) so CI can smoke it:

    PYTHONPATH=src python benchmarks/bench_engine_updates.py --smoke

Every cell is oracle-verified after its workload ran (the driver raises
if any engine answer diverges); see :mod:`repro.bench.engine_updates`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro.bench.engine_updates import (
        DEFAULT_WRITE_FRACTIONS,
        run_engine_updates,
    )
    from repro.bench.reporting import format_table
    from repro.engine import BACKEND_KINDS, LAYER_MODES
    from repro.models import MODEL_FACTORIES
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.bench.engine_updates import (
        DEFAULT_WRITE_FRACTIONS,
        run_engine_updates,
    )
    from repro.bench.reporting import format_table
    from repro.engine import BACKEND_KINDS, LAYER_MODES
    from repro.models import MODEL_FACTORIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000,
                        help="keys in the dataset (default 100k)")
    parser.add_argument("--ops", type=int, default=50_000,
                        help="operations per cell (default 50k)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--dataset", default="uden64")
    parser.add_argument("--model", default="interpolation",
                        choices=list(MODEL_FACTORIES))
    parser.add_argument("--layer", default="R", choices=list(LAYER_MODES))
    parser.add_argument("--backends", nargs="*", default=list(BACKEND_KINDS))
    parser.add_argument("--write-fractions", nargs="*", type=float,
                        default=list(DEFAULT_WRITE_FRACTIONS))
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--workers", type=int, default=1,
                        help="thread-pool size for cross-shard reads")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI configuration (fast, still verified)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.n = min(args.n, 20_000)
        args.ops = min(args.ops, 4_000)
        args.write_fractions = [0.0, 0.1]

    rows = run_engine_updates(
        n=args.n,
        num_shards=args.shards,
        dataset=args.dataset,
        model=args.model,
        layer=args.layer,
        backends=tuple(args.backends),
        write_fractions=tuple(args.write_fractions),
        ops=args.ops,
        batch_size=args.batch_size,
        seed=args.seed,
        workers=args.workers,
    )
    table = [
        [r["backend"], r["write_fraction"], r["inserts"],
         r["inserts_per_sec"], r["read_ns_per_lookup"], r["read_qps"],
         r["final_shards"], r["pending_updates"], r["exact"]]
        for r in rows
    ]
    print(format_table(
        ["backend", "write frac", "inserts", "inserts/s", "read ns/op",
         "read qps", "shards", "pending", "exact"],
        table,
        title=(f"engine updates — {args.dataset}, n={args.n:,}, "
               f"K={args.shards}, model={args.model}, layer={args.layer}"),
        float_digits=2,
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
