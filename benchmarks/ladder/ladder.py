"""The layer ladder: one query stream pushed through each boundary in turn.

Every rung answers the same seeded lookups over the same ``osmc64`` keys
through one more layer than the rung below — ``np.searchsorted`` (the
floor), one ``CorrectedIndex``, ``BatchExecutor`` at K=1 and K=8,
``Index.lookup_many``, ``IndexServer.lookup``, ``Client.lookup`` over
TCP — at batch sizes 1, 64 and 16,384, so a rung's value minus the one
below it is the time that layer adds per query.  Each call into a layer
is a span; the metrics are derived from the spans.  Beside the rungs the
module times the paper's three phases (predict, window, search) and the
write, persistence and wire-codec costs that no read rung reaches.
"""

from __future__ import annotations

import asyncio
import shutil
from pathlib import Path

import numpy as np

import repro
from child import ChildServer, split_cpus
from oracle import INSERT, Mirror
from repro.engine import BatchExecutor, ShardedIndex
from repro.hardware import MachineSpec, MemoryHierarchy, SimTracker
from repro.kernels import REGISTRY
from repro.models import build_corrected_index
from repro.net import Client, FrameDecoder, encode_frame
from tracing import Tracer
from workloads import Ctx, Outcome, lookup_queries, make_keys, median, write_plan

BATCH_SIZES = (1, 64, 16_384)
STREAM = 16_384          # queries per pass (fewer at batch size 1)
SIM_LOOKUPS = 2_000
MEMORY_WRITES = 256
DURABLE_WRITES = 64


def _spans_ns(tracer: Tracer, name: str, first_span: int, per: int) -> float:
    return tracer.total(name, first_span) / per * 1e9


async def _rungs(ctx: Ctx, out: Outcome, keys, sync_rungs, server, client,
                 api_index) -> None:
    tracer = ctx.tracer
    reps = 1 if ctx.smoke else 3
    b1_queries = 256 if ctx.smoke else 1024

    async def served(lookup, batch):
        if len(batch) == 1:
            return [await lookup(batch[0])]
        return await asyncio.gather(*map(lookup, batch))

    rungs = [(name, fn, False) for name, fn in sync_rungs] + [
        ("serve.lookup_ns", lambda b: served(server.lookup, b.tolist()), True),
        ("net.client_lookup_ns", lambda b: served(client.lookup, b.tolist()), True),
    ]
    samples: dict[str, list[float]] = {}
    rng = ctx.rng(5)
    for _ in range(reps):
        for b in BATCH_SIZES:
            # a fresh slice per pass, shared by every rung: the served
            # rungs' result cache never sees a query twice
            queries = lookup_queries(rng, keys, b1_queries if b == 1 else STREAM)
            out.streams.update(queries.tobytes())
            expect = np.searchsorted(keys, queries)
            for name, fn, is_async in rungs:
                metric = f"{name}.b{b}"
                root = tracer.open("ladder.pass")
                wrong = 0
                for rid, at in enumerate(range(0, len(queries), b)):
                    span = tracer.open(metric, root, rid)
                    got = fn(queries[at:at + b])
                    if is_async:
                        got = await got
                    tracer.close(span)
                    wrong += int((np.asarray(got) != expect[at:at + b]).sum())
                tracer.close(root)
                out.attempted += len(queries)
                out.failed += wrong
                samples.setdefault(metric, []).append(
                    _spans_ns(tracer, metric, root, len(queries)))
            if b == 1:
                root = len(tracer.spans)
                for rid, q in enumerate(queries):
                    span = tracer.open("api.lookup_scalar_ns", rid=rid)
                    got = api_index.lookup(q)
                    tracer.close(span)
                    out.failed += got != expect[rid]
                out.attempted += len(queries)
                samples.setdefault("api.lookup_scalar_ns", []).append(
                    _spans_ns(tracer, "api.lookup_scalar_ns", root, len(queries)))
    for metric, values in samples.items():
        out.layer[metric] = median(values)

    # exact wire counts over the fixed stream above (plus this one request)
    conns = (await client.stats())["net"]["connections"].values()
    requests = sum(c["requests"] for c in conns)
    out.layer["net.bytes_in_per_request"] = sum(
        c["bytes_in"] for c in conns) / requests
    out.layer["net.bytes_out_per_request"] = sum(
        c["bytes_out"] for c in conns) / requests


def _paper_phases(ctx: Ctx, out: Outcome, keys, corrected) -> None:
    """Predict, window and bounded search on one 16,384-query batch."""
    tracer = ctx.tracer
    search = REGISTRY.get("search.validated")
    queries = lookup_queries(ctx.rng(6), keys, STREAM)
    samples = {"models.predict_ns": [], "core.window_ns": [],
               "kernels.search_validated_ns": []}
    for _ in range(3):
        root = len(tracer.spans)
        span = tracer.open("models.predict_ns")
        predicted = corrected.model.predict_pos_batch(queries)
        tracer.close(span)
        span = tracer.open("core.window_ns")
        starts, widths = corrected.layer.window_batch(predicted)
        tracer.close(span)
        found = np.empty(len(queries), dtype=np.int64)
        span = tracer.open("kernels.search_validated_ns")
        search(keys, queries, starts, widths, found)
        tracer.close(span)
        out.attempted += len(queries)
        out.failed += int((found != np.searchsorted(keys, queries)).sum())
        for name in samples:
            samples[name].append(_spans_ns(tracer, name, root, len(queries)))
    for name, values in samples.items():
        out.layer[name] = median(values)
    out.layer["core.window_mean"] = corrected.layer.expected_window()

    hierarchy = MemoryHierarchy(MachineSpec.paper().scaled_for(len(keys)))
    sim = SimTracker(hierarchy)
    for q in queries[:SIM_LOOKUPS]:
        corrected.lookup(q, sim)
    out.layer["hardware.accesses_per_lookup"] = (
        hierarchy.stats.accesses / SIM_LOOKUPS)


def _wire_codec(ctx: Ctx, out: Outcome, keys) -> None:
    tracer = ctx.tracer
    queries = lookup_queries(ctx.rng(7), keys, 2048).tolist()
    span = tracer.open("net.encode_frame_ns")
    frames = [encode_frame({"op": "lookup", "q": q, "id": i})
              for i, q in enumerate(queries)]
    out.layer["net.encode_frame_ns"] = tracer.close(span) / len(queries) * 1e9
    blob = b"".join(frames)
    span = tracer.open("net.decode_frame_ns")
    decoded = FrameDecoder().feed(blob)
    out.layer["net.decode_frame_ns"] = tracer.close(span) / len(queries) * 1e9
    out.attempted += len(queries)
    out.failed += sum(m["q"] != q for m, q in zip(decoded, queries))


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _timed_writes(ctx: Ctx, out: Outcome, index, mirror: Mirror, name: str,
                  count: int) -> None:
    """Median µs of ``count`` inserts, then the inserted keys read back."""
    tracer = ctx.tracer
    plan = [w for w in write_plan(ctx.rng(8), mirror.base, count) if w[0] == INSERT]
    took = []
    for _, key in plan:
        span = tracer.open(name)
        index.insert(key)
        took.append(tracer.close(span))
        mirror.record(INSERT, key)
    out.layer[name] = median(took) * 1e6
    written = np.asarray([k for _, k in plan], dtype=mirror.base.dtype)
    out.attempted += len(plan)
    out.failed += int((index.lookup_many(written) != mirror.rank(
        written, np.full(len(written), mirror.version))).sum())


def _writes_and_persistence(ctx: Ctx, out: Outcome, keys, api_index,
                            saved: Path) -> None:
    tracer = ctx.tracer

    def timed(name: str, fn, reps: int = 3) -> None:
        took = []
        for _ in range(reps):
            span = tracer.open(name)
            result = fn()
            took.append(tracer.close(span))
            if hasattr(result, "close"):
                result.close()
        out.layer[name] = median(took)

    timed("engine.persist.save_s", lambda: api_index.save(saved))
    timed("engine.persist.open_s", lambda: repro.open(saved))

    memory = repro.Index.build(keys, "mixed")
    _timed_writes(ctx, out, memory, Mirror(keys), "engine.insert_us", MEMORY_WRITES)
    memory.close()

    durable_dir = ctx.work / "ladder-durable"
    durable = repro.Index.build(keys, "mixed", durable_dir=durable_dir,
                                durability="always")
    wal_before = _dir_bytes(durable_dir / "wal")
    mirror = Mirror(keys)
    _timed_writes(ctx, out, durable, mirror, "engine.insert_durable_us",
                  DURABLE_WRITES)
    out.layer["engine.wal.bytes_per_write"] = (
        _dir_bytes(durable_dir / "wal") - wal_before) / mirror.version
    durable.close()
    timed("engine.durability.recover_s", lambda: repro.open(durable_dir))
    recovered = repro.open(durable_dir)
    out.attempted += 1
    out.failed += not np.array_equal(recovered.keys, mirror.keys_at(mirror.version))
    recovered.close()
    shutil.rmtree(durable_dir)


def run_ladder(ctx: Ctx) -> Outcome:
    """Every ladder metric, measured on ``osmc64`` at the serving scale."""
    out = Outcome()
    keys = make_keys(ctx.scale.serve_keys)
    corrected = build_corrected_index(keys, "interpolation", "R")
    k1 = BatchExecutor(ShardedIndex.build(keys, 1))
    k8 = BatchExecutor(ShardedIndex.build(keys, 8))
    api_index = repro.Index.build(keys)
    sync_rungs = [
        ("floor.searchsorted_ns", lambda b: np.searchsorted(keys, b)),
        ("core.corrected_index_ns", corrected.lookup_batch_vectorized),
        ("engine.executor_k1_ns", k1.lookup_batch),
        ("engine.executor_k8_ns", k8.lookup_batch),
        ("api.lookup_many_ns", api_index.lookup_many),
    ]
    _paper_phases(ctx, out, keys, corrected)
    _wire_codec(ctx, out, keys)
    saved = ctx.work / "ladder.npz"
    _writes_and_persistence(ctx, out, keys, api_index, saved)

    async def drive(port: int) -> None:
        async with api_index.serve() as server, \
                Client("127.0.0.1", port) as client:
            await _rungs(ctx, out, keys, sync_rungs, server, client, api_index)

    with split_cpus() as child_cpu, ChildServer(saved, child_cpu) as child:
        asyncio.run(drive(child.port))
    api_index.close()
    return out
