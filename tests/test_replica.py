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
from repro.replica import (
    ReplicaError,
    ReplicationServer,
    follow,
    is_replica_dir,
)
from repro.replica.follower import read_replica_state

from helpers import tree_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


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
                async with ReplicationServer(leader.index.durability) \
                        as server:
                    # the follower boots and streams WHILE the writer
                    # is mutating the leader
                    replica = await follow(
                        server.address, tmp_path / "replica")
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
                    snap = server.stats.snapshot()
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                full_sync_bytes = replica.bytes_synced
                assert full_sync_bytes > 0
                await replica.close()

                leader.write(300)
                replica = await follow(server.address, tmp_path / "replica")
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
                recs = list(server.stats.followers.values())
                assert recs[-1].ship_bytes == 0
                assert recs[-1].stream_bytes > 0
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_stale_follower_past_wal_gc_falls_back_to_resync(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=6000, keep_generations=0)
            leader.write(200)
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()

                # while the follower is away: more writes, then a
                # checkpoint whose GC (keep_generations=0) drops the
                # WAL records the follower would need to resume
                leader.write(300)
                leader.index.checkpoint()
                replica = await follow(server.address, tmp_path / "replica")
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
                await replica.wait_caught_up(timeout=60)
                await replica.close()

                # same disconnect + checkpoint, but the retention floor
                # keeps the resume window open
                leader.write(300)
                leader.index.checkpoint()
                replica = await follow(server.address, tmp_path / "replica")
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(
                    server.address, tmp / "replica", reconnect=False)
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

                replica = await follow(server.address, tmp / "replica")
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
from repro.replica import ReplicationServer

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
    async with ReplicationServer(index.durability, flush_interval=0.005) \\
            as server:
        (work / "port").write_text(str(server.address[1]))
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
                async with ReplicationServer(mgr) as server:
                    with pytest.raises(ReplicaError,
                                       match="segment paths never leave"):
                        await follow(server.address,
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
            async with ReplicationServer(leader.index.durability) as server:
                replica = await follow(server.address, tmp_path / "replica")
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

    def test_cli_replicate_and_follow_probes(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        leader = Leader(tmp_path, n=2000)
        leader.write(50)
        leader.close()

        rc = cli_main(["replicate", str(tmp_path / "leader"),
                       "--port", "0", "--probe"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replicating" in out
        assert "probe: follower synced" in out

    def test_follower_stats_in_net_snapshot(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            net = leader.index.serve(addr=("127.0.0.1", 0),
                                     replicate_addr=("127.0.0.1", 0))
            async with net:
                assert net.replication_address is not None
                replica = await follow(
                    net.replication_address, tmp_path / "replica",
                    ack_interval=0.01)
                leader.write(120)
                await replica.wait_caught_up(timeout=60)
                await asyncio.sleep(0.1)  # one more ack cycle
                snap = net.stats.snapshot()
                assert snap["followers"] == 1
                assert snap["ship_bytes"] > 0
                assert snap["stream_bytes"] > 0
                per = net.stats.net_snapshot()["followers"]
                assert len(per) == 1
                rec = next(iter(per.values()))
                assert rec["connected"]
                assert rec["acked_lsn"] > 0
                await replica.close()
            leader.close()

        asyncio.run(scenario())

    def test_server_describe_and_follow_rejects_empty_leader(self, tmp_path):
        async def scenario():
            leader = Leader(tmp_path, n=2000)
            async with ReplicationServer(leader.index.durability) as server:
                d = server.describe()
                assert d["followers"] == 0
                assert d["generation"] >= 1
            leader.close()

        asyncio.run(scenario())
