"""Fault injection and coherence for the network serving tier.

* writes the wire never saw (applied straight on the engine) and float
  keys must be exactly visible — and cache-coherent — to the next wire
  read;
* a client SIGKILLed mid-pipeline (a real subprocess, as in the PR-6
  durability crash tests) — the server must drop the orphaned answers
  and release every backpressure slot it claimed for them.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.net import Client

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(11)
    return np.sort(np.unique(
        rng.integers(0, 1 << 40, 6000, dtype=np.uint64)))


def _oracle(keys, qs):
    return [int(r) for r in np.searchsorted(
        keys, np.asarray(qs, dtype=np.uint64), side="left")]


# ----------------------------------------------------------------------
# write visibility on the wire read path
# ----------------------------------------------------------------------
def test_event_stream_replays_in_engine_apply_order(keys):
    # the server's WriteEvent listener fires where the engine applies a
    # mutation, so even writes that never pass through a connection
    # handler invalidate the cache — same-key insert/delete/insert must
    # land the next wire read on "present once", and an answer cached
    # before the writes must not survive them
    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        net = index.serve(addr=("127.0.0.1", 0))
        await net.start()
        try:
            fresh = int(keys[-1]) + 11
            async with Client(*net.address, timeout=60) as client:
                assert await client.range(fresh, fresh + 1) == 0
                assert await client.lookup(fresh + 1) == len(keys)
                # repeats are served from the cache
                assert await client.range(fresh, fresh + 1) == 0
                assert (await client.stats())["cache_hit_rate"] > 0
                eng = net.server.index
                eng.insert(fresh)
                eng.delete(fresh)
                eng.insert(fresh)
                await client.barrier()
                assert await client.range(fresh, fresh + 1) == 1
                assert await client.lookup(fresh + 1) == len(keys) + 1
        finally:
            await net.close()

    asyncio.run(scenario())


def test_float_key_writes_replicate_exactly_to_workers():
    # (the name predates the single serving process; the contract it
    # pins did not change) float keys cross the wire in native float64
    # form; an int(key) truncation anywhere on the write path would
    # insert/delete the wrong key
    rng = np.random.default_rng(23)
    fkeys = np.sort(np.unique(rng.uniform(0.0, 1e6, 4000)))

    async def scenario():
        index = repro.Index.build(fkeys, num_shards=2)
        net = index.serve(addr=("127.0.0.1", 0))
        await net.start()
        try:
            async with Client(*net.address, timeout=60) as client:
                frac = float(int(fkeys[-1]) + 7) + 0.5
                await client.insert(frac)
                # read-your-writes at full float precision: under
                # int() truncation the count below would be 0 (the
                # index would hold frac - 0.5 instead)
                assert await client.range(frac, frac + 1.0) == 1
                assert await client.range(frac - 0.5, frac) == 0
                await client.delete(frac)
                await client.barrier()
                assert await client.range(frac - 1.0, frac + 1.0) == 0
                scan = await client.range_keys(0.0, frac + 2.0)
                assert np.array_equal(scan, np.asarray(fkeys))
        finally:
            await net.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# client death mid-pipeline
# ----------------------------------------------------------------------
#: a real client process: connect, pipeline `count` distinct lookups,
#: drop a marker file, then hang until the parent SIGKILLs it
_CHILD = """
import socket, sys, time
sys.path.insert(0, sys.argv[4])
from repro.net.protocol import encode_frame

port, count, marker = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
sock = socket.create_connection(("127.0.0.1", port))
burst = b"".join(
    encode_frame({"op": "lookup", "id": i, "q": 1234567 + 17 * i})
    for i in range(count)
)
sock.sendall(burst)
with open(marker, "w") as fh:
    fh.write("sent")
time.sleep(120)
"""


def test_sigkilled_client_leaks_no_slots(keys, tmp_path):
    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        # a small slot pool makes any leak visible immediately
        net = index.serve(addr=("127.0.0.1", 0), max_inflight=8)
        await net.start()
        server = net.server
        try:
            marker = tmp_path / "sent"
            child = subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(net.port), "64",
                 str(marker), str(SRC)],
            )
            try:
                deadline = time.monotonic() + 30
                while not marker.exists():
                    assert time.monotonic() < deadline, "client never sent"
                    await asyncio.sleep(0.01)
                # the burst is in the server's socket; let it start
                # claiming slots, then kill the client mid-pipeline
                await asyncio.sleep(0.05)
                os.kill(child.pid, signal.SIGKILL)
                child.wait(timeout=30)
            finally:
                if child.poll() is None:  # pragma: no cover - cleanup
                    child.kill()
                    child.wait(timeout=30)
            # orphaned answers are dropped, and every claimed slot
            # comes back: the pool refills to exactly max_inflight
            deadline = time.monotonic() + 30
            while server._slots != server.max_inflight:
                assert time.monotonic() < deadline, (
                    f"slots leaked: {server._slots} of "
                    f"{server.max_inflight} available")
                await asyncio.sleep(0.02)
            # and the server still serves new connections at full tilt
            async with Client(*net.address, timeout=60) as client:
                qs = [int(k) for k in keys[::250]]
                answers = await asyncio.gather(
                    *[client.lookup(q) for q in qs])
                assert answers == _oracle(keys, qs)
                assert server._slots == server.max_inflight
        finally:
            await net.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# one read path: the wire and the in-process API share IndexServer's core
# ----------------------------------------------------------------------
_PARITY_KEYS = ("served", "cache_hit_rate", "writes", "invalidated_points")


def _parity_rounds(keys):
    """Seeded rounds of scalar reads; repeats only *across* rounds, so
    hit/miss does not depend on how a burst is split into TCP reads."""
    rng = np.random.default_rng(5)
    hot = [int(k) for k in rng.choice(keys, 24, replace=False)]
    rounds = []
    for _ in range(6):
        picks = rng.choice(len(hot), 12, replace=False)
        ops = [("lookup", hot[i]) for i in picks[:8]]
        ops += [("range", hot[i], hot[i] + 1000) for i in picks[8:]]
        rounds.append(ops)
    return rounds


async def _drive_parity(read, insert, snapshot, keys):
    """Run the shared stream through one transport's callables."""
    before = await snapshot()
    answers = []
    rounds = _parity_rounds(keys)
    for n, ops in enumerate(rounds):
        if n == len(rounds) // 2:  # a write in the middle
            await insert(int(keys[len(keys) // 2]) + 1)
        answers.append(await asyncio.gather(*[read(*op) for op in ops]))
    after = await snapshot()
    assert after["batches"] > before["batches"]
    return answers, {k: after[k] - before[k] for k in _PARITY_KEYS}


def test_wire_and_inprocess_reads_take_the_same_path(keys):
    async def inprocess():
        index = repro.Index.build(keys, num_shards=2)
        async with index.serve() as server:
            async def snapshot():
                return server.stats.snapshot()

            def read(kind, *args):
                return getattr(server, kind)(*args)

            return await _drive_parity(read, server.insert, snapshot, keys)

    async def wire():
        index = repro.Index.build(keys, num_shards=2)
        async with index.serve(addr=("127.0.0.1", 0)) as net:
            async with Client(*net.address, timeout=60) as client:
                def read(kind, *args):
                    return getattr(client, kind)(*args)

                return await _drive_parity(
                    read, client.insert, client.stats, keys)

    local_answers, local_delta = asyncio.run(inprocess())
    wire_answers, wire_delta = asyncio.run(wire())
    assert wire_answers == local_answers
    assert wire_delta == local_delta
    assert local_delta["writes"] == 1 and local_delta["cache_hit_rate"] > 0


def test_background_timers_start_on_tcp_reads_alone(keys):
    # the timers are lazy (no loop at construction): any request must
    # start them, not only a write — a read-only TCP workload used to
    # run zero background retunes
    async def scenario():
        index = repro.Index.build(keys, num_shards=2, backend="gapped")
        async with index.serve(addr=("127.0.0.1", 0),
                               retune_interval=0.05) as net:
            async with Client(*net.address, timeout=60) as client:
                deadline = time.monotonic() + 30
                while (await client.stats())["background_retunes"] == 0:
                    assert time.monotonic() < deadline, "timer never ran"
                    q = int(keys[7])
                    assert await client.lookup(q) == 7
                    await asyncio.sleep(0.02)
                assert (await client.stats())["writes"] == 0

    asyncio.run(scenario())


def test_malformed_scalar_read_fails_only_itself(keys):
    # a lookup without its query field answers an error frame; the
    # connection (and its neighbours in the same TCP read) keep working
    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        async with index.serve(addr=("127.0.0.1", 0)) as net:
            async with Client(*net.address, timeout=60) as client:
                bad = client._request({"op": "lookup"}, idempotent=False)
                good = client.lookup(int(keys[9]))
                results = await asyncio.gather(
                    bad, good, return_exceptions=True)
                assert isinstance(results[0], TypeError)
                assert results[1] == 9
                assert net.server._slots == net.server.max_inflight

    asyncio.run(scenario())


def test_closed_connection_records_are_bounded_and_totals_exact(keys):
    from repro.net.protocol import encode_frame
    from repro.serve.stats import MAX_CLOSED_CONNECTIONS

    cycles = MAX_CLOSED_CONNECTIONS + 76

    async def scenario():
        index = repro.Index.build(keys, num_shards=2)
        async with index.serve(addr=("127.0.0.1", 0)) as net:
            host, port = net.address
            for i in range(cycles):
                _, writer = await asyncio.open_connection(host, port)
                if i < 3:  # early (soon evicted) peers misbehave
                    writer.write(encode_frame([i]))
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            async with Client(host, port, timeout=60) as client:
                deadline = time.monotonic() + 30
                while True:
                    snap = await client.stats()
                    if snap["open_connections"] == 1:
                        break
                    assert time.monotonic() < deadline, snap
                    await asyncio.sleep(0.01)
                assert snap["connections"] == cycles + 1
                assert snap["protocol_errors"] == 3
                per_conn = snap["net"]["connections"]
                assert len(per_conn) == MAX_CLOSED_CONNECTIONS + 1
                assert 0 not in per_conn and cycles in per_conn

    asyncio.run(scenario())
