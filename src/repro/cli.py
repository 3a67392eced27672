"""Command-line interface: ``python -m repro <command>``.

Thin wrappers over the experiment drivers and diagnostics so the
reproduction can be poked without writing Python (system throughput is
measured by ``benchmarks/ladder/run.py``, not here):

* ``version``      — library + on-disk format versions (also ``--version``)
* ``build``        — build an index via the ``repro.Index`` facade,
  print the EXPLAIN of a sample batch, optionally ``--save`` it as a
  snapshot directory or ``--durable-dir`` it into a WAL + checkpoint
  directory (one layout: ``MANIFEST.json`` + ``segments/``; a durable
  directory's manifest also records a WAL policy and it has a ``wal/``)
* ``inspect``      — read-only report on a saved index directory of
  either kind, or on a replica directory; never writes to it
* ``recover``      — crash-recover a durable directory (checkpoint +
  WAL replay) and report what came back
* ``checkpoint``   — run one incremental checkpoint pass over a
  durable directory and prune its WAL (``--keep-generations`` leaves
  a resume window for briefly-disconnected replicas)
* ``follow``       — run a read replica of a leader (``serve --load``
  on a durable directory) into a local directory
* ``paper``        — reproduce one paper artifact (Table 1/2, Figs.
  2/3/6–9, the ablations): print its table, check its claims, exit 1
  naming the claim or the incorrect cell that failed
* ``datasets``     — list datasets with their §2.4/§3.6 diagnostics
* ``tune``         — run the §3.9 advisor on one dataset
* ``explain``      — trace a single lookup through model + layer
* ``engine-update-bench`` — mixed read/write workload across backends
* ``serve``        — run the TCP serving front end (framed binary
  protocol; a durable ``--load`` also leads ``follow`` replicas)
* ``autotune-bench`` — per-shard §3.9 auto-tuning vs fixed global configs
* ``lint``         — project linter (RPR rules: dtype/lock/durability/
  async contracts), text or JSON findings, nonzero exit on violations
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .bench.reporting import format_table
from .models.factory import LAYER_MODES, MODEL_FACTORIES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None,
                        help="keys per dataset (default is per-command: "
                             "REPRO_SOSD_N, else 2M, for paper; 100k-1M "
                             "for the others)")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries (or total ops) per cell; default is "
                             "per-command")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed for datasets and workloads")


def _version_string() -> str:
    from . import __version__
    from .api import CONFIG_VERSION
    from .engine.persist import FORMAT_VERSION

    return (f"repro {__version__} "
            f"(engine format v{FORMAT_VERSION}, config v{CONFIG_VERSION})")


def _cmd_version(args: argparse.Namespace) -> int:
    print(_version_string())
    return 0


def _facade_config(args: argparse.Namespace):
    """Build an IndexConfig from ``build``-style CLI arguments."""
    from .api import IndexConfig

    overrides = {"num_shards": args.shards, "workers": args.workers}
    if args.preset:
        return IndexConfig.from_preset(args.preset, **overrides)
    return IndexConfig(
        model=args.model,
        layer=args.layer,
        backend=args.backend,
        auto_tune=args.auto_tune,
        **overrides,
    )


def _print_index_report(index) -> None:
    """Shared ``build``/``inspect`` report: config, summary, EXPLAIN."""
    print("config:  " + ", ".join(
        f"{k}={v}" for k, v in index.config.to_dict().items()
    ))
    print("index:   " + ", ".join(
        f"{k}={v}" for k, v in index.build_info().items()
    ))
    sample = np.random.default_rng(0).choice(
        index.keys, min(4096, len(index))
    )
    print(index.explain(sample))


def _cmd_build(args: argparse.Namespace) -> int:
    from .api import Index
    from .datasets import load

    n = args.n or 1_000_000
    keys = load(args.dataset, n, args.seed or 42)
    config = _facade_config(args)
    if args.durability:
        from dataclasses import replace

        config = replace(config, durability=args.durability)
    t0 = time.perf_counter()
    index = Index.build(keys, config, name=args.dataset,
                        durable_dir=args.durable_dir)
    build_s = time.perf_counter() - t0
    print(f"built {args.dataset} (n={n:,}) in {build_s:.2f}s")
    _print_index_report(index)
    if args.durable_dir:
        print(f"durable: {index.durability.describe()} — recover with "
              f"`python -m repro recover {args.durable_dir}`")
        index.close()
    if args.save:
        from pathlib import Path

        t0 = time.perf_counter()
        index.save(args.save)
        save_s = time.perf_counter() - t0
        size_mb = sum(p.stat().st_size for p in Path(args.save).rglob("*")
                      if p.is_file()) / 1e6
        print(f"saved to {args.save} ({size_mb:.1f} MB) in {save_s:.2f}s — "
              f"reopen with `python -m repro inspect {args.save}`")
    return 0


def _inspect_replica(path) -> int:
    """Read-only replication report for a ``follow`` directory.

    Reads files only — inspecting a replica must not open a WAL writer
    while (or after) a follower owns the directory.
    """
    from .engine.durability import is_durable_dir, replay_directory
    from .replica import read_replica_state

    state = read_replica_state(path)
    host, port = state.get("leader", ["?", 0])
    print(f"replica of {host}:{port} at {path}")
    for key in ("applied_lsn", "leader_lsn", "generation", "bytes_synced",
                "bytes_streamed", "streamed_records", "full_syncs",
                "resyncs", "subscriptions"):
        print(f"  {key:>18}: {state.get(key)}")
    lag = max(0, int(state.get("leader_lsn", 0))
              - int(state.get("applied_lsn", 0)))
    print(f"  {'lag_lsn':>18}: {lag} (as of the last state dump)")
    if is_durable_dir(path):
        local = replay_directory(path)
        print(f"  {'manifest':>18}: generation {local.generation}, "
              f"{len(local.manifest['segments'])} segment(s)")
        print(f"  {'local wal':>18}: {local.replayed} record(s) past the "
              f"segments{' (torn tail)' if local.torn else ''}, "
              f"{len(local.index):,} key(s) in all")
        print("promote with `python -m repro recover "
              f"{path}` or repro.open()")
    else:
        print("  no local manifest — the next `follow` will full-sync")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .api import Index
    from .engine.durability import replay_directory
    from .replica import is_replica_dir

    if is_replica_dir(args.path):
        return _inspect_replica(args.path)
    # the read side of open() only: a durable directory — idle, or live
    # under a server — gets no WAL writer and no new generation
    t0 = time.perf_counter()
    index = Index.from_state(replay_directory(args.path))
    open_s = time.perf_counter() - t0
    print(f"opened {args.path} in {open_s:.3f}s (no refitting)")
    _print_index_report(index)
    index.close()
    return 0


def _open_durable(path):
    """``Index.open`` for the commands that need the WAL."""
    from .api import Index

    index = Index.open(path)
    if not index.durable:
        index.close()
        raise SystemExit(
            f"{path} is a snapshot, not a durable directory: its manifest "
            "records no WAL policy")
    return index


def _cmd_recover(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    index = _open_durable(args.path)
    open_s = time.perf_counter() - t0
    d = index.durability
    print(f"recovered {args.path} in {open_s:.3f}s "
          f"(checkpoint generation {d.generation}, "
          f"replayed {d.replayed} WAL records, skipped {d.skipped})")
    _print_index_report(index)
    if args.checkpoint:
        t0 = time.perf_counter()
        manifest = index.checkpoint()
        print(f"checkpointed to generation {manifest['generation']} "
              f"in {time.perf_counter() - t0:.2f}s (WAL pruned)")
    index.close()
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    index = _open_durable(args.path)
    if args.keep_generations:
        index.durability.keep_generations = args.keep_generations
    t0 = time.perf_counter()
    manifest = index.checkpoint()
    dt = time.perf_counter() - t0
    print(f"checkpointed {args.path} to generation "
          f"{manifest['generation']} in {dt:.2f}s "
          f"({len(manifest['segments'])} shard segments, WAL pruned)")
    index.close()
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from .bench.paper import ClaimFailed, run

    artifact, result, n = run(args.artifact, n=args.n,
                              num_queries=args.queries, seed=args.seed)
    print(artifact.render(result))
    try:
        artifact.claim(result, n)
    except ClaimFailed as exc:
        print(f"paper {args.artifact}: claim FAILED: {exc}")
        return 1
    print(f"paper {args.artifact}: claim holds: "
          + " ".join(artifact.claim.__doc__.split()))
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .datasets import load
    from .datasets.registry import TABLE2_DATASETS
    from .datasets.stats import (
        burstiness,
        congestion_profile,
        duplication_ratio,
        gap_tail_index,
    )

    n = args.n or 200_000
    rows = []
    for name in TABLE2_DATASETS:
        keys = load(name, n, args.seed or 42)
        profile = congestion_profile(keys)
        rows.append([
            name,
            duplication_ratio(keys),
            gap_tail_index(keys),
            profile.max,
            profile.eq8_error,
            burstiness(keys, buckets=min(1024, n // 4)),
        ])
    print(format_table(
        ["dataset", "dup ratio", "gap tail idx", "max C_k", "eq8 err",
         "burstiness"],
        rows, title=f"dataset diagnostics (n={n:,})", float_digits=3,
    ))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .core.cost_model import measure_latency_curve
    from .core.records import SortedData
    from .core.tuner import tune
    from .datasets import load
    from .hardware.machine import MachineSpec
    from .models.interpolation import InterpolationModel

    n = args.n or 500_000
    keys = load(args.dataset, n, args.seed or 42)
    data = SortedData(keys, name=args.dataset)
    machine = MachineSpec.paper().scaled_for(n, data.record_bytes)
    curve = measure_latency_curve(keys, machine, record_bytes=data.record_bytes)
    index, report = tune(data, InterpolationModel(keys), curve=curve)
    print(f"dataset:        {args.dataset} (n={n:,})")
    print(f"error before:   {report.error_before:,.1f} records")
    print(f"error after:    {report.error_after:,.1f} records")
    print(f"eq9 (with):     {report.predicted_ns_with:,.1f} ns")
    print(f"eq10 (without): {report.predicted_ns_without:,.1f} ns")
    print(f"decision:       {'ENABLE' if report.layer_enabled else 'SKIP'} "
          f"the Shift-Table layer")
    print(f"index:          {index.name}, {index.size_bytes() / 1e6:.2f} MB")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core.corrected_index import CorrectedIndex
    from .core.range_query import RangeQueryEngine
    from .core.records import SortedData
    from .core.shift_table import ShiftTable
    from .datasets import load
    from .models.interpolation import InterpolationModel

    n = args.n or 200_000
    keys = load(args.dataset, n, args.seed or 42)
    data = SortedData(keys, name=args.dataset)
    model = InterpolationModel(keys)
    engine = RangeQueryEngine(
        CorrectedIndex(data, model, ShiftTable.build(keys, model))
    )
    q = int(args.query) if args.query is not None else int(
        keys[np.random.default_rng(0).integers(0, n)]
    )
    trace = engine.explain(keys.dtype.type(q))
    print(f"query:           {trace.query}")
    print(f"model output:    N*F(q) = {trace.prediction_float:,.2f} "
          f"-> predicted index {trace.predicted_index:,}")
    print(f"partition:       {trace.partition:,}")
    print(f"window:          [{trace.window_start:,}, "
          f"{trace.window_start + trace.window_width:,}] "
          f"({trace.window_width + 1} records)")
    print(f"result:          position {trace.result:,} "
          f"({'exact match' if trace.result_is_exact_match else 'lower bound'})")
    return 0


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=8,
                        help="number of range shards (default 8)")
    parser.add_argument("--model", default="interpolation",
                        choices=list(MODEL_FACTORIES),
                        help="shard-local model family (default "
                             "interpolation; rmi for skewed keys)")
    parser.add_argument("--layer", default="R", choices=list(LAYER_MODES),
                        help="correction layer per shard: R (guaranteed "
                             "window) or S (compact)")
    parser.add_argument("--workers", type=int, default=1,
                        help="thread-pool size for cross-shard execution")


def _cmd_engine_update_bench(args: argparse.Namespace) -> int:
    from .bench.engine_updates import (
        DEFAULT_WRITE_FRACTIONS,
        run_engine_updates,
    )

    fractions = (
        tuple(args.write_fractions) if args.write_fractions
        else DEFAULT_WRITE_FRACTIONS
    )
    rows = run_engine_updates(
        n=args.n or 100_000,
        num_shards=args.shards,
        dataset=args.dataset,
        model=args.model,
        layer=args.layer,
        backends=tuple(args.backends),
        write_fractions=fractions,
        ops=args.queries or 50_000,
        seed=args.seed if args.seed is not None else 42,
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
        table, title=f"engine updates — {args.dataset}", float_digits=2,
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .api import Index

    if args.load:
        index = Index.open(args.load)
        name = str(args.load)
    else:
        from .datasets import load

        n = args.n or 200_000
        keys = load(args.dataset, n, args.seed or 42)
        index = Index.build(keys, _facade_config(args), name=args.dataset)
        name = args.dataset

    async def run() -> int:
        net = index.serve(addr=(args.host, args.port))
        await net.start()
        host, port = net.address
        print(f"serving {name} (n={len(index.engine):,}) on {host}:{port}",
              flush=True)
        if index.durable:
            print(f"replicas: python -m repro follow {host} {port} <dir>",
                  flush=True)
        try:
            if args.probe:
                from .net import Client

                async with Client(host, port) as client:
                    assert await client.ping() is True
                    q = int(index.engine.keys[0])
                    print(f"probe: lookup({q}) -> {await client.lookup(q)}")
                return 0
            print("Ctrl-C to stop", flush=True)
            await net.serve_forever()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass  # pragma: no cover - interactive stop
        finally:
            await net.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0
    finally:
        index.close()


def _cmd_follow(args: argparse.Namespace) -> int:
    import asyncio

    async def run() -> int:
        from .replica import follow

        replica = await follow((args.host, args.port), args.dir,
                               sync=args.durability)
        print(f"following {args.host}:{args.port} into {args.dir} "
              f"({len(replica):,} key(s) after boot, "
              f"{replica.full_syncs} full sync(s), "
              f"{replica.bytes_synced:,} byte(s) shipped)", flush=True)
        try:
            if args.probe:
                head = await replica.wait_caught_up(timeout=60)
                d = replica.describe()
                print(f"probe: caught up to LSN {head} "
                      f"(streamed {d['streamed_records']} record(s), "
                      f"lag {d['lag_lsn']})")
                return 0
            print("Ctrl-C to stop", flush=True)
            while True:  # pragma: no cover - interactive loop
                await asyncio.sleep(5.0)
                lag = replica.lag()
                print(f"applied_lsn={replica.applied_lsn} "
                      f"lag={lag.lsns} lsn / {lag.seconds:.1f}s",
                      flush=True)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass  # pragma: no cover - interactive stop
        finally:
            await replica.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _cmd_autotune_bench(args: argparse.Namespace) -> int:
    from .bench.autotune import SMOKE_LIMITS, render_report, run_autotune_bench

    n = args.n or 200_000
    num_queries = args.queries or 100_000
    repeats = args.repeats
    if args.smoke:
        n = min(n, SMOKE_LIMITS["n"])
        num_queries = min(num_queries, SMOKE_LIMITS["num_queries"])
        repeats = min(repeats, SMOKE_LIMITS["repeats"])

    out = run_autotune_bench(
        n=n,
        num_shards=args.shards,
        num_queries=num_queries,
        repeats=repeats,
        seed=args.seed if args.seed is not None else 42,
        workers=args.workers,
        min_ratio=None if args.no_enforce else args.min_ratio,
    )
    print(render_report(out))
    return 0


def _cmd_lint(args) -> int:
    from .analysis import all_rules, lint_paths

    def _codes(raw: str | None) -> list[str] | None:
        if raw is None:
            return None
        return [c.strip() for c in raw.split(",") if c.strip()]

    try:
        report = lint_paths(args.paths, select=_codes(args.select),
                            ignore=_codes(args.ignore))
    except (FileNotFoundError, OSError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
        return 0 if report.clean else 1
    for finding in report.findings:
        print(finding.render())
    if args.statistics:
        rules = all_rules()
        rows = [(code, count,
                 rules[code].name if code in rules
                 else {"RPR001": "syntax-error",
                       "RPR002": "noqa-missing-reason",
                       "RPR003": "unused-noqa"}.get(code, ""))
                for code, count in report.statistics().items()]
        print(format_table(["code", "findings", "rule"], rows,
                           title="findings by rule"))
    status = "clean" if report.clean else f"{len(report.findings)} finding(s)"
    print(f"repro lint: {report.files_scanned} file(s) scanned, {status}")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shift-Table reproduction (EDBT 2021) command line",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("version",
                       help="print library and on-disk format versions")
    p.set_defaults(fn=_cmd_version)

    p = sub.add_parser(
        "build",
        help="build an index through the repro.Index facade, EXPLAIN "
             "a sample batch (optionally --save it as a snapshot "
             "directory)",
    )
    p.add_argument("--dataset", default="uden64",
                   help="dataset name (see `repro datasets`)")
    p.add_argument("--preset", default=None,
                   choices=["read_heavy", "mixed", "auto"],
                   help="IndexConfig preset (overrides --model/--layer/"
                        "--backend)")
    p.add_argument("--backend", default="static",
                   choices=["static", "gapped", "fenwick"],
                   help="shard storage backend")
    p.add_argument("--auto-tune", action="store_true",
                   help="run the §3.9 cost model per shard at build time")
    p.add_argument("--save", default=None, metavar="PATH",
                   help="publish the built index as a snapshot directory "
                        "at PATH (MANIFEST.json + segments/, no WAL)")
    p.add_argument("--durable-dir", default=None, metavar="DIR",
                   help="initialise a durable directory at DIR: the "
                        "snapshot layout plus wal/ and a WAL policy in "
                        "the manifest (crash-safe writes; reopen with "
                        "`recover`)")
    p.add_argument("--durability", default=None,
                   choices=["always", "group", "async"],
                   help="WAL fsync policy for --durable-dir "
                        "(default group)")
    _add_engine_options(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser(
        "inspect",
        help="read-only report on a saved index directory (snapshot, "
             "durable or replica): config/shards; never writes to it",
    )
    p.add_argument("path", help="directory written by `build --save` / "
                                "Index.save() or `build --durable-dir`")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser(
        "recover",
        help="crash-recover a durable directory (checkpoint + WAL "
             "replay) and report the result",
    )
    p.add_argument("path", help="directory written by `build "
                                "--durable-dir` (a snapshot has no WAL "
                                "and is refused)")
    p.add_argument("--checkpoint", action="store_true",
                   help="write a fresh checkpoint after recovery "
                        "(prunes the replayed WAL)")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "checkpoint",
        help="run one incremental checkpoint pass over a durable "
             "directory and prune its WAL",
    )
    p.add_argument("path", help="directory written by `build "
                                "--durable-dir` (a snapshot has no WAL "
                                "and is refused)")
    p.add_argument("--keep-generations", type=int, default=0,
                   help="WAL generations to retain past the checkpoint "
                        "(a resume window for disconnected replicas)")
    p.set_defaults(fn=_cmd_checkpoint)

    p = sub.add_parser(
        "follow",
        help="run a read replica of a leader (`serve --load` on a "
             "durable directory) into a local directory (full sync, "
             "then WAL-tail streaming)",
    )
    p.add_argument("host", help="leader serving host")
    p.add_argument("port", type=int, help="leader serving port")
    p.add_argument("dir", help="local replica directory (reused across "
                               "runs for incremental catch-up)")
    p.add_argument("--durability", default="async",
                   choices=["always", "group", "async"],
                   help="local WAL fsync policy (default async: replica "
                        "durability comes from re-syncing)")
    p.add_argument("--probe", action="store_true",
                   help="catch up to the leader's head, report, and exit "
                        "(smoke mode)")
    p.set_defaults(fn=_cmd_follow)

    from .bench.paper import PAPER

    p = sub.add_parser(
        "paper",
        help="reproduce a paper table/figure and check its claims "
             "(exit 1 names the failing claim or cell)",
    )
    p.add_argument("artifact", choices=list(PAPER),
                   help="which artifact to reproduce")
    _add_common(p)
    p.set_defaults(fn=_cmd_paper)

    p = sub.add_parser("datasets", help="dataset diagnostics")
    _add_common(p)
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("tune", help="run the §3.9 advisor")
    p.add_argument("dataset", help="dataset name (see `repro datasets`)")
    _add_common(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("explain", help="trace one lookup")
    p.add_argument("dataset", help="dataset name (see `repro datasets`)")
    p.add_argument("--query", default=None,
                   help="key to trace (default: a sampled existing key)")
    _add_common(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "serve",
        help="run the TCP serving front end on a built or reopened "
             "index (framed binary protocol; see repro.net)",
    )
    p.add_argument("--dataset", default="uden64",
                   help="dataset name to build and serve "
                        "(see `repro datasets`)")
    p.add_argument("--load", default=None, metavar="PATH",
                   help="serve a saved index directory (snapshot or "
                        "durable) instead of building --dataset; a "
                        "durable one also leads `follow` replicas")
    p.add_argument("--preset", default=None,
                   choices=["read_heavy", "mixed", "auto"],
                   help="IndexConfig preset (overrides --model/--layer/"
                        "--backend)")
    p.add_argument("--backend", default="gapped",
                   choices=["static", "gapped", "fenwick"],
                   help="shard storage backend (default gapped: "
                        "cheap writes)")
    p.add_argument("--auto-tune", action="store_true",
                   help="run the §3.9 cost model per shard at build time")
    p.add_argument("--host", default="127.0.0.1",
                   help="address to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7421,
                   help="TCP port to bind (0 picks an ephemeral port)")
    p.add_argument("--probe", action="store_true",
                   help="after binding, run one TCP client round trip "
                        "against the server and exit (smoke mode)")
    _add_engine_options(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_serve, shards=2)

    p = sub.add_parser(
        "autotune-bench",
        help="per-shard §3.9 auto-tuning vs fixed global configs on a "
             "skewed multi-distribution dataset, oracle-verified",
    )
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per config (best-of)")
    p.add_argument("--min-ratio", type=float, default=0.8,
                   help="required auto/best-fixed throughput ratio "
                        "(noise guard; the driver raises below it)")
    p.add_argument("--no-enforce", action="store_true",
                   help="report the throughput ratio without enforcing it")
    p.add_argument("--smoke", action="store_true",
                   help="tiny CI configuration (fast, still verified)")
    # no --model/--layer here: the whole point is that the tuner picks
    # them per shard; the fixed-config sweep is built in
    p.add_argument("--shards", type=int, default=9,
                   help="number of range shards (default 9: three per "
                        "distribution segment)")
    p.add_argument("--workers", type=int, default=1,
                   help="thread-pool size for cross-shard execution")
    _add_common(p)
    p.set_defaults(fn=_cmd_autotune_bench)

    p = sub.add_parser(
        "lint",
        help="run the project linter (RPR dtype/lock/durability/async "
             "rules) over source files",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format; json follows the stable schema "
                        "documented in docs/ARCHITECTURE.md")
    p.add_argument("--select", default=None, metavar="CODES",
                   help="comma-separated rule code prefixes to enable "
                        "(e.g. RPR1,RPR202); default all")
    p.add_argument("--ignore", default=None, metavar="CODES",
                   help="comma-separated rule code prefixes to disable")
    p.add_argument("--statistics", action="store_true",
                   help="print a findings-per-rule summary table")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "engine-update-bench",
        help="mixed read/write workload: insert throughput + read latency "
             "per shard backend and write fraction",
    )
    p.add_argument("--dataset", default="uden64",
                   help="dataset name (see `repro datasets`)")
    p.add_argument("--backends", nargs="*",
                   default=["static", "gapped", "fenwick"],
                   help="shard backends to sweep")
    p.add_argument("--write-fractions", nargs="*", type=float, default=None,
                   help="write fractions to sweep (default 0/0.01/0.1/0.3)")
    _add_engine_options(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_engine_update_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
