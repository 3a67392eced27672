"""The layer-ladder benchmark: one command, every metric, every answer checked.

    python3 benchmarks/ladder/run.py [--workload W] [--seed N] [--seconds S]
                                     [--trace [0|1]] [--smoke] [--out F]
    python3 benchmarks/ladder/run.py compare A.json B.json

Without ``--workload`` all four run in turn.  Each run prints its metrics
by name with their units and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics (workload counters + the ladder) with ``--trace 1``.
A missing or non-finite metric aborts the run with a non-zero exit code.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

from paths import WORK, ensure_repro

SMOKE_SECONDS = 4.0


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """One run of one workload; returns its result record."""
    from ladder import run_ladder
    from report import load_spec
    from tracing import Tracer
    from workloads import DRIVERS, Ctx

    spec = load_spec()
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    ctx = Ctx(seed=seed, seconds=seconds, smoke=smoke, work=work, tracer=tracer)
    try:
        out = DRIVERS[workload](ctx)
        measured = out.e2e
        if trace:
            rungs = run_ladder(ctx)
            out.attempted += rungs.attempted
            out.failed += rungs.failed
            out.streams.update(rungs.streams.digest())
            measured = {**out.layer, **rungs.layer}
            tracer.write(WORK / f"trace-{workload}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = measured.get(m["name"])
        if value is None or not math.isfinite(value):
            raise SystemExit(
                f"ladder: {workload}: metric {m['name']} is {value!r}; "
                "a missing or non-finite metric voids the run")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}

    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}"
          f"{'  smoke' if smoke else ''}")
    for name, cell in metrics.items():
        print(f"{name:<38} {cell['value']:>16.6g} {cell['unit']}")
    if trace and workload in ("serve_uniform", "net_tcp"):
        rung = "serve.lookup_ns.b64" if workload == "serve_uniform" \
            else "net.client_lookup_ns.b64"
        per_op = 1e9 / out.e2e["ops_per_s"]
        print(f"cross-check: {rung} = {measured[rung]:.0f} ns/query beside "
              f"1e9/ops_per_s = {per_op:.0f} ns/op on {workload} "
              f"({per_op / measured[rung] - 1:+.0%})")
    print(f"ops attempted {out.attempted}, failed {out.failed}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "stream_sha256": out.streams.hexdigest(),
        "correct": bool(out.failed == 0), "attempted": int(out.attempted),
        "failed": int(out.failed), "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    ensure_repro()
    from report import append_run, compare, fingerprint, load_spec
    from workloads import WORKLOADS

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds of "
                             f"BENCHMARK.json; {SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run that gives the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="50k keys and short segments (self-tests)")
    parser.add_argument("--out", type=Path,
                        help="append each run to this result file")
    args = parser.parse_args(argv)
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"]))

    for workload in [args.workload] if args.workload else WORKLOADS:
        run = run_one(workload, args.seed, seconds, bool(args.trace), args.smoke)
        if args.out is not None:
            append_run(args.out, fingerprint(args.smoke), run)
        print(json.dumps({k: run[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
