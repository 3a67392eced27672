"""Replication tier: full sync, WAL-tail streaming, faults (ISSUE 10).

The acceptance contract, all verified against ``np.searchsorted``
oracles:

* a leader taking live concurrent writes → the follower full-syncs the
  published generation, streams the tail, and serves ≥10k lookups and
  ranges that are oracle-exact at its reported LSN watermark;
* disconnect/reconnect resumes incrementally — proven by byte
  counters (no re-ship), not by vibes;
* a follower stale past the leader's WAL GC falls back to a full
  generation re-sync (and ``keep_generations`` prevents exactly that);
* hypothesis crash-at-any-point: kill the stream after any prefix of
  frames (plus an arbitrarily torn local WAL tail), re-follow, and the
  replica converges to the leader oracle exactly;
* a real SIGKILLed leader mid-checkpoint: the follower keeps serving
  an exact prefix of the leader's acknowledged history and its
  directory stays promotable — never a torn generation.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine.durability import is_durable_dir, replay_directory
from repro.replica import ReplicaError, follow, is_replica_dir
from repro.replica.follower import _LeaderClient, read_replica_state
from repro.replica.leader import _RecordBuffer

from helpers import tree_bytes

SRC = Path(__file__).resolve().parents[1] / "src"
LOCAL = ("127.0.0.1", 0)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def make_keys(n: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(1 << 40, n, replace=False).astype(np.uint64))


def fresh_keys(n: int, seed: int) -> np.ndarray:
    """Keys disjoint from :func:`make_keys` (bit 41 set)."""
    rng = np.random.default_rng(seed)
    return (rng.choice(1 << 40, n, replace=False).astype(np.uint64)
            | np.uint64(1 << 41))


class Leader:
    """A durable leader index plus a deterministic op log.

    ``ops[i]`` is the write that produced LSN ``i + 1`` (single writer,
    so apply order == LSN order), which makes ``oracle_at(lsn)`` exact:
    the key set a perfectly-synced replica must hold at that watermark.
    """

    def __init__(self, tmp: Path, n: int = 12000, seed: int = 3,
                 keep_generations: int = 0) -> None:
        self.base = make_keys(n, seed)
        self.index = repro.Index.build(
            self.base, backend="gapped", num_shards=4,
            durable_dir=tmp / "leader", durability="async")
        self.index.durability.keep_generations = keep_generations
        self.index.checkpoint()
        self.ops: list[tuple[str, int]] = []
        self._insert_pool = iter(fresh_keys(200_000, seed + 1).tolist())
        self._delete_pool = iter(self.base.tolist())

    def write(self, count: int, delete_every: int = 4) -> None:
        """Apply ``count`` deterministic writes (unique keys only)."""
        for i in range(count):
            if delete_every and (i % delete_every) == delete_every - 1:
                key = next(self._delete_pool)
                self.index.delete(np.uint64(key))
                self.ops.append(("delete", key))
            else:
                key = next(self._insert_pool)
                self.index.insert(np.uint64(key))
                self.ops.append(("insert", key))

    def oracle_at(self, lsn: int) -> np.ndarray:
        assert lsn <= len(self.ops), f"no oracle for future LSN {lsn}"
        live = set(self.base.tolist())
        for op, key in self.ops[:lsn]:
            (live.add if op == "insert" else live.discard)(key)
        return np.sort(np.fromiter(live, dtype=np.uint64, count=len(live)))

    def close(self) -> None:
        self.index.close()


def check_oracle_reads(replica, oracle: np.ndarray, n_ops: int,
                       seed: int = 99) -> None:
    """``n_ops`` mixed lookups/ranges, every answer oracle-exact."""
    rng = np.random.default_rng(seed)
    n_points = n_ops // 2
    n_ranges = n_ops - n_points
    qs = rng.integers(0, 1 << 42, n_points).astype(np.uint64)
    got = replica.lookup_many(qs)
    want = np.searchsorted(oracle, qs, side="left")
    assert np.array_equal(got, want), "lookup mismatch vs oracle"
    lo = rng.integers(0, 1 << 42, n_ranges).astype(np.uint64)
    span = rng.integers(1, 1 << 36, n_ranges).astype(np.uint64)
    hi = np.minimum(lo + span, np.uint64((1 << 42) - 1))
    first, last = replica.range_many(lo, hi)
    wf = np.searchsorted(oracle, lo, side="left")
    wl = np.maximum(wf, np.searchsorted(oracle, hi, side="left"))
    assert np.array_equal(first, wf) and np.array_equal(last, wl), \
        "range mismatch vs oracle"


# ----------------------------------------------------------------------
# acceptance: live writes, full sync, stream, oracle-exact reads
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_full_sync_stream_and_oracle_exact_reads(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=12000)
            stop = threading.Event()

            def writer():
                while not stop.is_set() and len(leader.ops) < 4000:
                    leader.write(40)
                    time.sleep(0.001)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                async with leader.index.serve(addr=LOCAL) as net:
                    # the follower boots and streams WHILE the writer
                    # is mutating the leader
                    replica = await follow(
                        net.address, tmp_path / "replica")
                    assert replica.full_syncs == 1
                    assert replica.bytes_synced > 0
                    mid_lag = replica.lag()
                    assert mid_lag.lsns >= 0
                    stop.set()
                    thread.join()
                    watermark = await replica.wait_caught_up(timeout=60)
                    assert watermark == len(leader.ops)
                    assert replica.applied_lsn >= watermark

                    oracle = leader.oracle_at(replica.applied_lsn)
                    assert np.array_equal(replica.keys, oracle)
                    check_oracle_reads(replica, oracle, n_ops=10_000)
                    assert len(replica) == len(oracle)

                    lag = replica.lag()
                    assert lag.lsns == 0 and lag.seconds == 0.0
                    d = replica.describe()
                    assert d["streamed_records"] >= 1
                    assert d["bytes_streamed"] > 0

                    # replication health surfaced in the shared stats
                    snap = net.stats.snapshot()
                    assert snap["followers"] == 1
                    assert snap["connected_followers"] == 1
                    assert snap["ship_bytes"] == replica.bytes_synced
                    assert snap["stream_bytes"] > 0
                    await replica.close()
            finally:
                stop.set()
                thread.join()
                leader.close()

        asyncio.run(scenario())

    def test_promotion_via_repro_open(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=3000)
            leader.write(600)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()
            oracle = leader.oracle_at(len(leader.ops))
            leader.close()
            return oracle

        oracle = asyncio.run(scenario())
        assert is_replica_dir(tmp_path / "replica")
        assert is_durable_dir(tmp_path / "replica")
        promoted = repro.open(tmp_path / "replica")
        assert promoted.durable
        assert np.array_equal(promoted.keys, oracle)
        extra = np.uint64((1 << 43) + 17)
        promoted.insert(extra)  # a promoted replica takes writes
        assert promoted.lookup(extra) == np.searchsorted(oracle, extra)
        promoted.close()


# ----------------------------------------------------------------------
# reconnect: incremental resume vs generation re-sync
# ----------------------------------------------------------------------
class TestReconnect:
    def test_reconnect_resumes_incrementally(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=6000, keep_generations=2)
            leader.write(400)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                full_sync_bytes = replica.bytes_synced
                assert full_sync_bytes > 0
                await replica.close()

                leader.write(300)
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                # incremental: nothing re-shipped, only the tail streamed
                assert replica.full_syncs == 0
                assert replica.resyncs == 0
                assert replica.bytes_synced == 0
                assert 0 < replica.bytes_streamed < full_sync_bytes
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                # the per-follower server counters agree: the second
                # connection shipped zero segment bytes
                per = net.stats.net_snapshot()["followers"]
                assert per[max(per)]["ship_bytes"] == 0
                assert per[max(per)]["stream_bytes"] > 0
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_stale_follower_past_wal_gc_falls_back_to_resync(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=6000, keep_generations=0)
            leader.write(200)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()

                # while the follower is away: more writes, then a
                # checkpoint whose GC (keep_generations=0) drops the
                # WAL records the follower would need to resume
                leader.write(300)
                leader.index.checkpoint()
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                assert replica.resyncs + replica.full_syncs >= 1
                assert replica.bytes_synced > 0  # the generation re-shipped
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_keep_generations_lets_follower_resume_across_checkpoint(
            self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=6000, keep_generations=2)
            leader.write(200)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()

                # same disconnect + checkpoint, but the retention floor
                # keeps the resume window open
                leader.write(300)
                leader.index.checkpoint()
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                assert replica.full_syncs == 0
                assert replica.resyncs == 0
                assert replica.bytes_synced == 0
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_checkpoint_rotation_while_follower_streams(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=6000, keep_generations=2)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                for _ in range(3):
                    leader.write(150)
                    leader.index.checkpoint()  # rotates under the stream
                    await replica.wait_caught_up(timeout=60)
                assert replica.full_syncs == 1  # only the initial sync
                assert replica.resyncs == 0
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_dropped_connection_reconnects_and_converges(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=4000, keep_generations=2)
            leader.write(200)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                # yank the transport out from under the stream
                replica._conn._writer.transport.abort()
                leader.write(250)
                await replica.wait_caught_up(timeout=60)
                assert replica.subscriptions >= 2  # it re-subscribed
                assert replica.full_syncs == 1     # but never re-shipped
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                await replica.close()
            leader.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# hypothesis: crash after any prefix of frames, with a torn local tail
# ----------------------------------------------------------------------
class TestCrashCatchUpProperty:
    @given(
        cut=st.integers(min_value=0, max_value=300),
        torn=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=8, deadline=None)
    def test_replica_converges_after_crash_at_any_prefix(
            self, tmp_path_factory, cut, torn):
        """Kill the stream after any applied prefix, tear the local WAL
        tail by any byte count, re-follow: exact convergence."""
        tmp = tmp_path_factory.mktemp("crashcut")

        async def scenario():
            leader = Leader(tmp, n=1500, keep_generations=3)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(
                    net.address, tmp / "replica", reconnect=False)
                leader.write(300)
                await replica.wait_for_lsn(min(cut, 300), timeout=60)
                # crash: abort the transport mid-stream, then close
                # (the applied prefix at this instant is arbitrary —
                # that is the point)
                if replica._conn is not None:
                    replica._conn._writer.transport.abort()
                await replica.close()

                # tear the local WAL tail the way a real crash would
                lanes = sorted((tmp / "replica" / "wal").rglob("*.wal"))
                if lanes and torn:
                    lane = lanes[-1]
                    size = lane.stat().st_size
                    with open(lane, "rb+") as fh:
                        fh.truncate(max(0, size - torn))

                replica = await follow(net.address, tmp / "replica")
                await replica.wait_caught_up(timeout=60)
                assert np.array_equal(
                    replica.keys, leader.oracle_at(len(leader.ops)))
                await replica.close()
            leader.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# real SIGKILL of the leader (mid-checkpoint) — never a torn generation
# ----------------------------------------------------------------------
LEADER_CHILD = """
import asyncio, sys
from pathlib import Path
import numpy as np
import repro

work = Path(sys.argv[1])
nbase, seed = int(sys.argv[2]), int(sys.argv[3])
rng = np.random.default_rng(seed)
base = np.sort(rng.choice(1 << 40, nbase, replace=False).astype(np.uint64))
index = repro.Index.build(base, backend="gapped", num_shards=2,
                          durable_dir=work / "leader", durability="always")
index.durability.keep_generations = 2
index.checkpoint()
inserts = iter((rng.choice(1 << 40, 100_000, replace=False)
                .astype(np.uint64) | np.uint64(1 << 41)).tolist())
deletes = iter(base.tolist())
intent = open(work / "intent.log", "w")

async def main():
    async with index.serve(addr=("127.0.0.1", 0)) as net:
        (work / "port").write_text(str(net.address[1]))
        i = 0
        while True:
            if i % 4 == 3:
                key = next(deletes)
                intent.write(f"delete {key}\\n")
                intent.flush()  # page cache: survives SIGKILL
                index.delete(np.uint64(key))
            else:
                key = next(inserts)
                intent.write(f"insert {key}\\n")
                intent.flush()
                index.insert(np.uint64(key))
            i += 1
            if i % 40 == 0:
                index.checkpoint()  # SIGKILL often lands mid-pass
            if i % 10 == 0:
                await asyncio.sleep(0)  # let the streamer breathe

asyncio.run(main())
"""


class TestLeaderSigkill:
    def test_follower_never_serves_a_torn_generation(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        stderr = open(tmp_path / "stderr.log", "wb")
        proc = subprocess.Popen(
            [sys.executable, "-c", LEADER_CHILD, str(tmp_path),
             "2000", "77"], env=env, stderr=stderr)
        try:
            port_path = tmp_path / "port"
            deadline = time.monotonic() + 120
            while not port_path.exists() or not port_path.read_text():
                if proc.poll() is not None:
                    pytest.fail("leader child died during startup: "
                                + (tmp_path / "stderr.log").read_text())
                if time.monotonic() > deadline:
                    pytest.fail("leader child never published its port")
                time.sleep(0.01)
            port = int(port_path.read_text())

            async def scenario():
                replica = await follow(
                    ("127.0.0.1", port), tmp_path / "replica")
                # let it stream live records through a few checkpoint
                # rotations, then SIGKILL the leader mid-everything
                deadline = time.monotonic() + 60
                while replica.applied_lsn < 200:
                    if time.monotonic() > deadline:
                        pytest.fail("replica never reached LSN 200")
                    await asyncio.sleep(0.01)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
                await asyncio.sleep(0.2)  # absorb the dead connection

                # the replica's key set must be EXACTLY the oracle at
                # its watermark — an acknowledged prefix of the
                # leader's single-writer history, nothing torn, nothing
                # beyond what the leader durably acknowledged
                w = replica.applied_lsn
                intent = (tmp_path / "intent.log").read_text().split("\n")
                ops = [line.split() for line in intent if line]
                assert w <= len(ops)
                rng = np.random.default_rng(77)
                base = np.sort(rng.choice(
                    1 << 40, 2000, replace=False).astype(np.uint64))
                live = set(base.tolist())
                for op, key in ops[:w]:
                    (live.add if op == "insert" else live.discard)(int(key))
                oracle = np.sort(np.fromiter(
                    live, dtype=np.uint64, count=len(live)))
                assert np.array_equal(replica.keys, oracle)
                # it keeps serving reads after the leader is gone
                check_oracle_reads(replica, oracle, n_ops=2000)
                await replica.close()
                return oracle

            oracle = asyncio.run(scenario())
            # the synced directory is never torn: it recovers and
            # promotes to exactly the watermark state
            state = replay_directory(tmp_path / "replica")
            assert state.index is not None
            assert np.array_equal(np.sort(state.index.keys), oracle)
            promoted = repro.open(tmp_path / "replica")
            assert np.array_equal(promoted.keys, oracle)
            promoted.close()
        finally:
            stderr.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# a leader-supplied manifest names local paths: validate before writing
# ----------------------------------------------------------------------
class TestHostileLeader:
    @pytest.mark.parametrize("name", [
        "../escaped/g0000000002-s0000.npz",
        "{abs}/g0000000002-s0000.npz",
        "segments/g0000000002-s0001.npz",   # another slot's segment
        "segments/g0000000001-s0000.npz",   # a stale generation's
    ])
    def test_hostile_manifest_is_refused_before_any_write(
            self, tmp_path, name):
        """``_full_sync`` used to write the fetched blob to ``directory /
        name`` (``mkdir(parents=True)`` first), so an absolute or ``../``
        name from the leader escaped the replica directory."""
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            mgr = leader.index.durability
            good = mgr.manifest["segments"][0]
            # the leader really serves the hostile name: the file exists
            # on its side and passes its pinned-manifest membership check
            evil = name.format(abs=tmp_path / "abs-escaped")
            target = mgr.root / evil
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes((mgr.root / good).read_bytes())
            mgr.manifest = dict(
                mgr.manifest, segments=[evil] + mgr.manifest["segments"][1:])
            try:
                async with leader.index.serve(addr=LOCAL) as net:
                    with pytest.raises(ReplicaError,
                                       match="segment paths never leave"):
                        await follow(net.address,
                                     tmp_path / "replicas" / "r1",
                                     reconnect=False)
            finally:
                leader.close()

        asyncio.run(scenario())
        # no segment byte was written, inside the replica directory or
        # out of it: close() dumped the state file and that is all
        assert not (tmp_path / "replicas" / "escaped").exists()
        assert list(tree_bytes(tmp_path / "replicas")) == ["r1/REPLICA.json"]
        if "abs" in name:
            assert [p.name for p in (tmp_path / "abs-escaped").iterdir()] \
                == ["g0000000002-s0000.npz"]  # only the leader's own copy


# ----------------------------------------------------------------------
# observability: replica state file, inspect, CLI probes
# ----------------------------------------------------------------------
class TestObservability:
    def test_replica_state_file_and_inspect(self, tmp_path, capsys):
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            leader.write(100)
            async with leader.index.serve(addr=LOCAL) as net:
                replica = await follow(net.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()
            leader.close()

        asyncio.run(scenario())
        state = read_replica_state(tmp_path / "replica")
        assert state["applied_lsn"] == 100
        assert state["full_syncs"] == 1
        assert state["bytes_synced"] > 0

        from repro.cli import main as cli_main

        before = tree_bytes(tmp_path / "replica")
        rc = cli_main(["inspect", str(tmp_path / "replica")])
        out = capsys.readouterr().out
        assert rc == 0
        assert tree_bytes(tmp_path / "replica") == before  # read-only
        assert "replica of" in out
        assert "applied_lsn" in out and "100" in out
        assert "promote" in out

    def test_cli_follow_probes_a_serve_load_leader(self, tmp_path, capsys):
        """``serve --load <durable dir>`` is the leader; ``follow
        --probe`` syncs from its serving port and catches up."""
        from repro.cli import main as cli_main

        leader = Leader(tmp_path, n=2000)
        leader.write(50)
        leader.close()
        log = tmp_path / "serve.log"
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--load",
                 str(tmp_path / "leader"), "--port", "0"],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=out, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 120
            while "Ctrl-C" not in log.read_text():
                if proc.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("serve --load never came up: "
                                + log.read_text())
                time.sleep(0.01)
            text = log.read_text()
            assert "replicas: python -m repro follow" in text
            port = text.split(" on 127.0.0.1:")[1].split()[0]
            rc = cli_main(["follow", "127.0.0.1", port,
                           str(tmp_path / "replica"), "--probe"])
            out = capsys.readouterr().out
            assert rc == 0
            assert f"following 127.0.0.1:{port}" in out
            assert "1 full sync(s)" in out
            assert "probe: caught up to LSN 50" in out
        finally:
            proc.terminate()
            proc.wait()
        state = read_replica_state(tmp_path / "replica")
        assert state["applied_lsn"] == 50
        promoted = repro.open(tmp_path / "replica")
        assert np.array_equal(promoted.keys, leader.oracle_at(50))
        promoted.close()

    def test_follower_stats_in_net_snapshot(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            async with leader.index.serve(addr=LOCAL) as net:
                assert net.replication is not None
                replica = await follow(
                    net.address, tmp_path / "replica", ack_interval=0.01)
                leader.write(120)
                await replica.wait_caught_up(timeout=60)
                await asyncio.sleep(0.1)  # one more ack cycle
                snap = net.stats.snapshot()
                assert snap["followers"] == 1
                assert snap["ship_bytes"] > 0
                assert snap["stream_bytes"] > 0
                net_snap = net.stats.net_snapshot()
                per = net_snap["followers"]
                assert len(per) == 1
                cid, rec = next(iter(per.items()))
                assert rec["connected"]
                assert rec["acked_lsn"] > 0
                # pushes count on the connection record like replies
                assert net_snap["connections"][cid]["bytes_out"] \
                    >= rec["ship_bytes"] + rec["stream_bytes"]
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_server_describe_and_follow_rejects_empty_leader(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            async with leader.index.serve(addr=LOCAL) as net:
                d = net.replication.describe()
                assert d["followers"] == 0
                assert d["generation"] >= 1
            leader.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# one wire: replication shares the serving port and connection loop
# ----------------------------------------------------------------------
async def pipelined_reads(client, oracle: np.ndarray, rounds: int,
                          seed: int) -> int:
    """``rounds`` x 64 pipelined lookups + 16 ranges, oracle-checked."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        qs = rng.integers(0, 1 << 42, 64).astype(np.uint64)
        got = await asyncio.gather(*(client.lookup(q) for q in qs.tolist()))
        assert got == np.searchsorted(oracle, qs, side="left").tolist()
        lo = rng.integers(0, 1 << 41, 16).astype(np.uint64)
        hi = lo + np.uint64(1 << 36)
        got = await asyncio.gather(*(
            client.range(a, b) for a, b in zip(lo.tolist(), hi.tolist())))
        want = (np.searchsorted(oracle, hi, side="left")
                - np.searchsorted(oracle, lo, side="left"))
        assert got == want.tolist()
    return rounds * 80


class TestOnePort:
    def test_reads_pipeline_while_a_follower_syncs_on_the_same_port(
            self, tmp_path):
        from repro.net import Client

        async def scenario():
            leader = Leader(tmp_path, n=6000)
            leader.write(300)
            async with leader.index.serve(addr=LOCAL) as net:
                async with Client(*net.address, timeout=60) as client:
                    oracle = leader.oracle_at(len(leader.ops))
                    replica, reads = await asyncio.gather(
                        follow(net.address, tmp_path / "replica"),
                        pipelined_reads(client, oracle, 25, seed=1))
                    assert replica.full_syncs == 1
                    # live writes stream to the follower while the
                    # reader keeps pipelining on its own connection
                    leader.write(200)
                    oracle = leader.oracle_at(len(leader.ops))
                    head, more = await asyncio.gather(
                        replica.wait_caught_up(timeout=60),
                        pipelined_reads(client, oracle, 25, seed=2))
                    assert head == len(leader.ops)
                    assert np.array_equal(replica.keys, oracle)
                    check_oracle_reads(replica, oracle, n_ops=2000)
                    assert replica.streamed_records >= 200
                    snap = net.stats.snapshot()
                    assert snap["followers"] == 1
                    assert snap["ship_bytes"] == replica.bytes_synced
                    assert snap["stream_bytes"] > 0
                    conns = net.stats.net_snapshot()["connections"]
                    assert max(c["requests"] for c in conns.values()) \
                        >= reads + more
                    await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_repl_op_on_a_snapshot_server_fails_only_itself(self, tmp_path):
        keys = make_keys(3000)

        async def scenario():
            index = repro.Index.build(keys, num_shards=2)
            async with index.serve(addr=LOCAL) as net:
                assert net.replication is None
                client = _LeaderClient(*net.address, timeout=30,
                                       max_frame=1 << 24)
                await client.connect()
                with pytest.raises(ReplicaError, match="durable index"):
                    await client.request({"op": "repl_hello"})
                q = int(keys[1234])
                assert await client.lookup(q) == 1234  # connection lives
                await client.close()
                with pytest.raises(ReplicaError, match="durable index"):
                    await follow(net.address, tmp_path / "r",
                                 reconnect=False)
            index.close()

        asyncio.run(scenario())

    def test_uncontacted_durable_server_runs_no_tap_and_no_timer(
            self, tmp_path):
        from repro.net import Client

        async def scenario():
            leader = Leader(tmp_path, n=2000)  # durability="async"
            mgr = leader.index.durability
            async with leader.index.serve(addr=LOCAL) as net:
                async with Client(*net.address) as client:
                    await client.insert(int(fresh_keys(1, 9)[0]))
                    assert await client.ping()
                leader.write(20)
                durable = mgr.durable_lsn
                await asyncio.sleep(0.2)  # ten flush intervals
                assert mgr._record_listeners == []
                assert net.replication._flusher is None
                assert mgr.durable_lsn == durable < mgr.last_lsn
                # the first repl_* request starts both
                client = _LeaderClient(*net.address, timeout=30,
                                       max_frame=1 << 24)
                await client.connect()
                await client.request({"op": "repl_hello"})
                assert len(mgr._record_listeners) == 1
                assert net.replication._flusher is not None
                deadline = time.monotonic() + 30
                while mgr.durable_lsn < mgr.last_lsn:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                await client.close()
                # the last follower leaving stops both again
                while net.replication._flusher is not None:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                assert mgr._record_listeners == []
                leader.write(20)
                durable = mgr.durable_lsn
                await asyncio.sleep(0.2)
                assert mgr.durable_lsn == durable < mgr.last_lsn
            assert mgr._record_listeners == []  # detached on close
            leader.close()

        asyncio.run(scenario())

    def test_follower_records_are_bounded_and_totals_exact(self, tmp_path):
        from repro.serve.stats import MAX_CLOSED_CONNECTIONS

        cycles = MAX_CLOSED_CONNECTIONS + 76

        async def settled(net) -> dict:
            deadline = time.monotonic() + 30
            while True:
                snap = net.stats.snapshot()
                if snap["connected_followers"] == 0:
                    return snap
                assert time.monotonic() < deadline, snap
                await asyncio.sleep(0.01)

        async def scenario():
            leader = Leader(tmp_path, n=2000)
            leader.write(40)
            async with leader.index.serve(addr=LOCAL) as net:
                for i in range(cycles):
                    client = _LeaderClient(*net.address, timeout=30,
                                           max_frame=1 << 24)
                    await client.connect()
                    await client.request({"op": "repl_hello"})
                    if i < 3:  # early (soon evicted) followers do work
                        r = await client.request({"op": "repl_manifest"})
                        await client.request({
                            "op": "repl_fetch", "offset": 0,
                            "name": r["manifest"]["segments"][0]})
                        r = await client.request(
                            {"op": "repl_subscribe", "from_lsn": 0})
                        assert r["mode"] == "stream"
                        r = await client.request(
                            {"op": "repl_subscribe", "from_lsn": 10**9})
                        assert r["mode"] == "resync"
                    await client.close()
                    if i == 2:
                        early = await settled(net)
                        assert early["ship_bytes"] > 0
                        assert early["stream_bytes"] > 0
                        assert early["follower_resyncs"] == 3
                snap = await settled(net)
                assert snap["followers"] == cycles
                for name in ("ship_bytes", "stream_bytes",
                             "follower_resyncs"):
                    assert snap[name] == early[name], name
                per = net.stats.net_snapshot()["followers"]
                assert len(per) == MAX_CLOSED_CONNECTIONS
                assert 0 not in per and cycles - 1 in per
            leader.close()

        asyncio.run(scenario())


def test_record_buffer_is_a_contiguous_ring():
    buf = _RecordBuffer(floor=0, capacity=4)
    for lsn in range(1, 4):
        buf.add(lsn, 1, 0, lsn * 10)
    assert buf.floor == 0
    assert buf.run_from(0, 99, 99) == [(1, 1, 0, 10), (2, 1, 0, 20),
                                       (3, 1, 0, 30)]
    assert [r[0] for r in buf.run_from(1, 2, 99)] == [2]    # upto caps
    assert [r[0] for r in buf.run_from(0, 99, 2)] == [1, 2]  # limit caps
    assert buf.run_from(3, 99, 99) == []                    # caught up
    # eviction: the floor follows the oldest held LSN; a cursor below
    # it gets nothing (tick turns that into a resync)
    for lsn in range(4, 9):
        buf.add(lsn, 1, 0, lsn * 10)
    assert buf.floor == 4
    assert buf.run_from(3, 99, 99) == []
    assert [r[0] for r in buf.run_from(4, 99, 99)] == [5, 6, 7, 8]  # wraps
    assert [r[0] for r in buf.run_from(6, 99, 99)] == [7, 8]
    # a gapped add drops the run and raises the floor below it: nobody
    # is pushed across the gap, and nothing raises
    buf.add(11, 2, 1, 110)
    assert buf.floor == 10
    assert buf.run_from(8, 99, 99) == []
    assert buf.run_from(10, 99, 99) == [(11, 2, 1, 110)]
    buf.add(12, 1, 0, 120)
    assert [r[0] for r in buf.run_from(10, 99, 99)] == [11, 12]
    # a replayed (non-increasing) LSN is a gap too; the floor never drops
    buf.add(12, 1, 0, 121)
    assert buf.floor == 11
    assert buf.run_from(11, 99, 99) == [(12, 1, 0, 121)]
    # a late-attached tap forgets everything at or below the head
    buf.raise_floor(20)
    assert buf.run_from(12, 99, 99) == [] and buf.run_from(20, 99, 99) == []
    buf.add(21, 1, 0, 210)
    assert buf.run_from(20, 99, 99) == [(21, 1, 0, 210)]
