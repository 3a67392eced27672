"""Crash-recovery oracle suite for the durability layer (ISSUE 6).

Every test builds the same ground truth two ways: a live engine that
applied the writes, and a recovered engine rebuilt from the durable
directory (checkpoint segments + WAL tail).  Crashes are simulated two
ways — copying the directory of a *live* manager (the OS page cache
survives a crash, open handles do not) and SIGKILLing a real child
process mid-write and mid-checkpoint.  Recovery must always land on an
acknowledged prefix of the write schedule, key for key.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
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
from repro.engine import ShardedIndex
from repro.engine.durability import (
    DURABLE_FORMAT_VERSION,
    MANIFEST_NAME,
    DurabilityError,
    DurabilityManager,
    is_durable_dir,
    replay_directory,
    save_snapshot,
)
from repro.engine.wal import WalError, list_generations
from repro.serve import IndexServer

from helpers import tree_bytes

SRC = Path(__file__).resolve().parents[1] / "src"
BACKENDS = ("static", "gapped", "fenwick")


def make_keys(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(1 << 40, n, replace=False).astype(np.uint64))


def build(keys, backend="gapped", shards=4):
    return ShardedIndex.build(keys, shards, backend=backend, name="dur")


def fresh_keys(n, seed):
    """Keys disjoint from :func:`make_keys` (bit 41 set)."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(1 << 40, n, replace=False).astype(np.uint64)
    return picks | np.uint64(1 << 41)


def apply_mixed(index, oracle, ops, seed):
    """~70% fresh inserts / 30% live deletes, mirrored into ``oracle``."""
    rng = np.random.default_rng(seed)
    fresh = iter(int(k) for k in fresh_keys(2 * ops, seed + 1))
    for i in range(ops):
        if i % 10 < 7:
            key = next(fresh)
            index.insert(np.uint64(key))
            oracle.append(key)
        else:
            key = oracle.pop(int(rng.integers(len(oracle))))
            index.delete(np.uint64(key))


def crash_image(db: Path, dst: Path) -> Path:
    """Copy a *live* durable dir: what a kill -9 leaves on disk."""
    shutil.copytree(db, dst)
    return dst


def assert_same_keys(recovered: ShardedIndex, live: ShardedIndex) -> None:
    assert np.array_equal(np.sort(recovered.keys), np.sort(live.keys))


# ----------------------------------------------------------------------
# checkpoint → crash → recover round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_plus_tail_recovers_oracle(self, tmp_path, backend):
        keys = make_keys()
        index = build(keys, backend)
        oracle = [int(k) for k in keys]
        with DurabilityManager.create(index, tmp_path / "db",
                                      sync="always") as mgr:
            apply_mixed(index, oracle, 300, seed=11)
            mgr.checkpoint()
            apply_mixed(index, oracle, 300, seed=12)
            crash = crash_image(tmp_path / "db", tmp_path / "crash")

        rec = DurabilityManager.recover(crash)
        try:
            assert rec.index.source == "recovered"
            assert rec.index.backend_kind == backend
            assert_same_keys(rec.index, index)
            assert sorted(oracle) == np.sort(rec.index.keys).tolist()
            # recovered engine answers queries like the live one
            qs = np.sort(rec.index.keys)[::97]
            assert np.array_equal(rec.index.lookup_batch(qs),
                                  index.lookup_batch(qs))
        finally:
            rec.close()

    def test_clean_reopen_replays_nothing_after_checkpoint(self, tmp_path):
        index = build(make_keys(1000))
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            apply_mixed(index, [int(k) for k in index.keys], 50, seed=3)
            mgr.checkpoint()
            generation = mgr.generation
        rec = DurabilityManager.recover(tmp_path / "db")
        assert rec.replayed == 0 and rec.skipped == 0
        assert rec.generation == generation
        assert_same_keys(rec.index, index)
        rec.close()

    def test_recovery_without_checkpoint_replays_whole_tail(self, tmp_path):
        index = build(make_keys(1000))
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="always")
        for k in fresh_keys(40, seed=7):
            index.insert(k)
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        mgr.close()
        rec = DurabilityManager.recover(crash)
        assert rec.replayed == 40 and rec.skipped == 0
        assert_same_keys(rec.index, index)
        rec.close()

    def test_second_crash_after_recovery_still_recovers(self, tmp_path):
        index = build(make_keys(1000))
        oracle = [int(k) for k in index.keys]
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="always")
        apply_mixed(index, oracle, 100, seed=21)
        first = crash_image(tmp_path / "db", tmp_path / "crash1")
        mgr.close()

        rec1 = DurabilityManager.recover(first)
        apply_mixed(rec1.index, oracle, 100, seed=22)
        second = crash_image(first, tmp_path / "crash2")
        rec1.close()

        rec2 = DurabilityManager.recover(second)
        assert sorted(oracle) == np.sort(rec2.index.keys).tolist()
        rec2.close()

    def test_checkpoint_gcs_wal_and_stale_segments(self, tmp_path):
        index = build(make_keys(1000))
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            apply_mixed(index, [int(k) for k in index.keys], 60, seed=5)
            mgr.checkpoint()
            gen = mgr.generation
            assert list_generations(tmp_path / "db" / "wal") == [gen]
            names = {
                p.name for p in (tmp_path / "db" / "segments").iterdir()
            }
            assert names == {
                f"g{gen:010d}-s{s:04d}.npz"
                for s in range(index.num_shards)
            }

    def test_config_and_sync_round_trip_through_manifest(self, tmp_path):
        index = build(make_keys(500))
        cfg = {"model": "interpolation", "durability": "always"}
        mgr = DurabilityManager.create(
            index, tmp_path / "db", sync="always", index_config=cfg
        )
        mgr.close()
        rec = DurabilityManager.recover(tmp_path / "db")
        assert rec.sync == "always"  # policy persisted in the manifest
        assert rec.index_config == cfg
        rec.close()
        override = DurabilityManager.recover(tmp_path / "db", sync="async")
        assert override.sync == "async"
        override.close()

    def test_delete_all_then_insert_replays_through_empty(self, tmp_path):
        """The WAL tail may pass through an empty index; recovery must
        re-seed the engine from the first insert after the trough."""
        keys = make_keys(8)
        index = build(keys, shards=1)
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="always")
        for k in keys:
            index.delete(k)
        reborn = [int(k) for k in fresh_keys(5, seed=9)]
        for k in reborn:
            index.insert(np.uint64(k))
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        mgr.close()
        rec = DurabilityManager.recover(crash)
        assert np.sort(rec.index.keys).tolist() == sorted(reborn)
        rec.close()

    def test_maintenance_resumes_after_checkpoint(self, tmp_path):
        index = build(make_keys(500))
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            mgr.checkpoint()
            assert not index._defer_maintenance
            mgr.checkpoint(resume=False)
            assert index._defer_maintenance  # caller's job now
            index.resume_maintenance()
            assert not index._defer_maintenance


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
class TestErrors:
    def test_recover_refuses_non_durable_dir(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(DurabilityError, match="not a durable index"):
            DurabilityManager.recover(tmp_path / "plain")
        assert not is_durable_dir(tmp_path / "plain")

    def test_create_refuses_existing_durable_dir(self, tmp_path):
        index = build(make_keys(200))
        DurabilityManager.create(index, tmp_path / "db").close()
        assert is_durable_dir(tmp_path / "db")
        with pytest.raises(DurabilityError, match="recover"):
            DurabilityManager.create(build(make_keys(200)), tmp_path / "db")

    def test_checkpoint_refuses_empty_index(self, tmp_path):
        keys = make_keys(4)
        index = build(keys, shards=1)
        with DurabilityManager.create(index, tmp_path / "db",
                                      sync="always") as mgr:
            for k in keys:
                index.delete(k)
            with pytest.raises(DurabilityError, match="empty"):
                mgr.checkpoint()

    def test_closed_manager_refuses_checkpoint(self, tmp_path):
        index = build(make_keys(200))
        mgr = DurabilityManager.create(index, tmp_path / "db")
        mgr.close()
        mgr.close()  # idempotent
        with pytest.raises(DurabilityError, match="closed"):
            mgr.checkpoint()

    def test_future_layout_version_rejected(self, tmp_path):
        index = build(make_keys(200))
        DurabilityManager.create(index, tmp_path / "db").close()
        manifest_path = tmp_path / "db" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = DURABLE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="version"):
            DurabilityManager.recover(tmp_path / "db")

    def test_old_lane_layout_is_refused_by_version(self, tmp_path):
        """A format-version-1 directory (``wal/g<gen>/lane-<shard>.wal``)
        must be rejected naming the version — never read as "no
        records", which would silently drop its un-checkpointed tail."""
        db = tmp_path / "db"
        DurabilityManager.create(build(make_keys(200)), db).close()
        (log,) = (db / "wal").iterdir()
        log.unlink()
        lanes = db / "wal" / log.stem  # g<gen>/ as version 1 laid it out
        lanes.mkdir()
        (lanes / "lane-0000.wal").write_bytes(b"RWAL\x01\x00\x03\x00<u8")
        with pytest.raises(WalError, match="version 1"):
            repro.open(db)
        manifest_path = db / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DurabilityError, match="version 1"):
            repro.open(db)

    def test_garbage_manifest_rejected(self, tmp_path):
        index = build(make_keys(200))
        DurabilityManager.create(index, tmp_path / "db").close()
        (tmp_path / "db" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DurabilityError, match="unreadable"):
            DurabilityManager.recover(tmp_path / "db")


# ----------------------------------------------------------------------
# inspect is a read-only open
# ----------------------------------------------------------------------
class TestInspectIsReadOnly:
    def test_inspect_never_writes_to_an_idle_durable_directory(
            self, tmp_path, capsys):
        """``inspect`` used to go through ``Index.open`` →
        ``DurabilityManager.recover``, which opens a WAL writer: three
        inspects left ``wal/g0000000002.wal … g0000000004.wal`` behind."""
        from repro.cli import main as cli_main

        db = tmp_path / "db"
        index = build(make_keys(800))
        with DurabilityManager.create(index, db, sync="always"):
            apply_mixed(index, [int(k) for k in index.keys], 30, seed=2)
        before = tree_bytes(db)
        for _ in range(3):
            assert cli_main(["inspect", str(db)]) == 0
        out = capsys.readouterr().out
        assert tree_bytes(db) == before
        assert "source=recovered" in out
        assert f"num_keys={len(index)}" in out  # tail replayed, in memory

    def test_inspect_beside_a_live_owner_leaves_its_wal_alone(
            self, tmp_path, capsys):
        from repro.cli import main as cli_main

        db = tmp_path / "db"
        index = build(make_keys(800))
        with DurabilityManager.create(index, db, sync="always") as mgr:
            index.insert(fresh_keys(1, seed=3)[0])
            before = tree_bytes(db)
            assert cli_main(["inspect", str(db)]) == 0
            assert tree_bytes(db) == before
            assert list_generations(db / "wal") == [mgr.wal.generation]
        assert f"num_keys={len(index)}" in capsys.readouterr().out

    def test_durable_only_commands_refuse_a_snapshot_by_name(
            self, tmp_path):
        from repro.cli import main as cli_main

        snap = tmp_path / "snap"
        repro.Index.build(make_keys(300), num_shards=2).save(snap)
        before = tree_bytes(snap)
        for command in ("recover", "checkpoint"):
            with pytest.raises(SystemExit, match="is a snapshot"):
                cli_main([command, str(snap)])
        assert tree_bytes(snap) == before


# ----------------------------------------------------------------------
# crash at every cut point (hypothesis-driven schedules)
# ----------------------------------------------------------------------
class TestCrashCutProperty:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, (1 << 40) - 1)),
            max_size=40,
        ),
        cut=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_recovery_is_exact_at_any_cut(self, tmp_path_factory, ops, cut):
        """``sync="always"`` acknowledges inside the write call, so the
        crash image at any cut point must recover to *exactly* the
        prefix applied so far — writes after the cut never leak in."""
        tmp = tmp_path_factory.mktemp("crashcut")
        base = (np.arange(1, 129, dtype=np.uint64) * 977) | np.uint64(1 << 41)
        index = build(base, shards=2)
        oracle = [int(k) for k in base]
        mgr = DurabilityManager.create(index, tmp / "db", sync="always")

        def apply(is_insert, value):
            if is_insert or not oracle:
                index.insert(np.uint64(value))
                oracle.append(value)
            else:
                key = oracle.pop(value % len(oracle))
                index.delete(np.uint64(key))

        cut = min(cut, len(ops))
        for is_insert, value in ops[:cut]:
            apply(is_insert, value)
        prefix = sorted(oracle)
        crash = crash_image(tmp / "db", tmp / "crash")
        for is_insert, value in ops[cut:]:
            apply(is_insert, value)
        mgr.close()

        rec = DurabilityManager.recover(crash)
        assert np.sort(rec.index.keys).tolist() == prefix
        rec.close()

    #: 8-byte frame header + (13-byte payload head + 8-byte uint64 key)
    FRAME = 8 + 13 + 8

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, (1 << 42) - 1)),
            min_size=2, max_size=8,
        ),
        sync=st.sampled_from(["group", "async"]),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_truncated_log_recovers_an_exact_prefix(
            self, tmp_path_factory, ops, sync, data):
        """One log per generation: whatever a crash leaves of it is a
        prefix of the applied history.  Cut the log at *every* byte
        offset; recovery must equal the oracle after exactly the intact
        frames, nothing skipped — and mid-file damage is still refused,
        not replayed around."""
        db = tmp_path_factory.mktemp("prefix") / "db"
        base = np.arange(1, 257, dtype=np.uint64) << np.uint64(34)
        index = build(base, shards=4)  # writes spread over all 4 shards
        oracle = [int(k) for k in base]
        mgr = DurabilityManager.create(index, db, sync=sync)
        states = [sorted(oracle)]
        for is_insert, value in ops:
            if is_insert:
                index.insert(np.uint64(value))
                oracle.append(value)
            else:
                index.delete(np.uint64(oracle.pop(value % len(oracle))))
            states.append(sorted(oracle))
        mgr.close()

        (log,) = (db / "wal").iterdir()  # one file per generation
        blob = log.read_bytes()
        header = len(blob) - self.FRAME * len(ops)

        def intact(cut):
            return max(0, (cut - header) // self.FRAME)

        for cut in range(len(blob) + 1):
            log.write_bytes(blob[:cut])
            state = replay_directory(db)  # recovery's (pure) read side
            assert np.sort(state.index.keys).tolist() \
                == states[intact(cut)], cut
            assert state.skipped == 0

        damaged = bytearray(blob)
        damaged[header + 10] ^= 0xFF  # first frame; intact ones follow
        log.write_bytes(bytes(damaged))
        with pytest.raises(WalError, match="mid-file"):
            replay_directory(db)

        cut = data.draw(st.integers(0, len(blob)), label="cut")
        log.write_bytes(blob[:cut])
        with repro.open(db) as recovered:
            assert recovered.keys.tolist() == states[intact(cut)]
            assert recovered.durability.skipped == 0


# ----------------------------------------------------------------------
# checkpoints racing live writers
# ----------------------------------------------------------------------
class TestConcurrentCheckpoint:
    def test_checkpoints_under_write_load_lose_nothing(self, tmp_path):
        index = build(make_keys(3000), shards=4)
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="async")
        supply = fresh_keys(20_000, seed=31)
        stop = threading.Event()
        cursor = {"n": 0}

        def writer():
            i = 0
            while not stop.is_set() and i < len(supply):
                index.insert(supply[i])
                i += 1
            cursor["n"] = i

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(4):
                mgr.checkpoint()
        finally:
            stop.set()
            thread.join()
        assert not index._defer_maintenance
        mgr.commit()
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        mgr.close()

        rec = DurabilityManager.recover(crash)
        assert_same_keys(rec.index, index)
        assert len(rec.index) == 3000 + cursor["n"]
        rec.close()

    def test_save_racing_a_checkpoint_keeps_the_structure_frozen(
            self, tmp_path):
        """``Index.save`` and a background checkpoint both defer
        maintenance for their pass; whichever ends first must not thaw
        the shard structure under the other (deferral nests)."""
        index = build(make_keys(400), shards=2)
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="async")
        mgr.checkpoint(resume=False)  # the server's off-loop half
        assert index._defer_maintenance == 1
        for k in fresh_keys(3000, seed=33):
            index.insert(k)  # 8x growth: splits are owed, and parked
        save_snapshot(index, tmp_path / "snap")
        assert index._defer_maintenance == 1 and index.num_shards == 2
        index.resume_maintenance()  # the server's on-loop half
        assert not index._defer_maintenance and index.num_shards > 2
        mgr.close()
        assert_same_keys(replay_directory(tmp_path / "snap").index, index)


# ----------------------------------------------------------------------
# real SIGKILL, real process (the ISSUE acceptance harness)
# ----------------------------------------------------------------------
CHILD = """
import sys, time
from pathlib import Path
import numpy as np
from repro.engine import ShardedIndex
from repro.engine.durability import DurabilityManager

work = Path(sys.argv[1])
seed, nbase, ops, ckpt_every = map(int, sys.argv[2:6])
rng = np.random.default_rng(seed)
keys = np.sort(rng.choice(1 << 40, nbase, replace=False).astype(np.uint64))
index = ShardedIndex.build(keys, 4, backend="gapped", name="kill")
mgr = DurabilityManager.create(index, work / "db", sync="always")
live = [int(k) for k in keys]
fresh = iter(
    int(k) for k in
    (rng.choice(1 << 40, 2 * ops, replace=False).astype(np.uint64)
     | np.uint64(1 << 41))
)
intent = open(work / "intent.log", "w")
acked = open(work / "acked.log", "w")
for i in range(ops):
    if rng.random() < 0.7 or not live:
        op, key = "insert", next(fresh)
    else:
        op, key = "delete", live.pop(int(rng.integers(len(live))))
    intent.write(f"{op} {key}\\n")
    intent.flush()  # in the OS page cache: survives SIGKILL
    if op == "insert":
        index.insert(np.uint64(key))
        live.append(key)
    else:
        index.delete(np.uint64(key))
    acked.write(f"{i}\\n")
    acked.flush()
    if ckpt_every and (i + 1) % ckpt_every == 0:
        mgr.checkpoint()
(work / "done").write_text("done")
time.sleep(30)  # hold still so the parent's SIGKILL always lands
"""


class TestKillRecovery:
    SEED = 424242
    NBASE = 2500
    OPS = 2000

    def run_kill(self, tmp_path, ckpt_every, kill_after_acks=150):
        work = tmp_path
        env = dict(os.environ, PYTHONPATH=str(SRC))
        stderr = open(work / "stderr.log", "wb")
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(work), str(self.SEED),
             str(self.NBASE), str(self.OPS), str(ckpt_every)],
            env=env, stderr=stderr,
        )
        try:
            acked_path = work / "acked.log"
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail(
                        "child exited before the kill: "
                        + (work / "stderr.log").read_text()
                    )
                if (acked_path.exists()
                        and acked_path.read_bytes().count(b"\n")
                        >= kill_after_acks):
                    break
                time.sleep(0.002)
            else:
                pytest.fail("child never reached the kill point")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            stderr.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert not (work / "done").exists(), "kill landed after the run"
        return work

    def check_recovery_matches_acknowledged_prefix(self, work):
        """Recovered keys == oracle after m ops, for an m no older than
        the last acknowledged op and no newer than the last attempted."""
        rng = np.random.default_rng(self.SEED)
        base = np.sort(
            rng.choice(1 << 40, self.NBASE, replace=False).astype(np.uint64)
        )
        intent_ops = []
        for line in (work / "intent.log").read_text().splitlines():
            op, key = line.split()
            intent_ops.append((op, int(key)))
        n_acked = (work / "acked.log").read_bytes().count(b"\n")
        assert n_acked <= len(intent_ops)

        rec = DurabilityManager.recover(work / "db")
        try:
            recovered = np.sort(rec.index.keys).tolist()
        finally:
            rec.close()

        oracle = sorted(int(k) for k in base)
        import bisect

        def step(op, key):
            if op == "insert":
                bisect.insort(oracle, key)
            else:
                oracle.pop(bisect.bisect_left(oracle, key))

        for op, key in intent_ops[:n_acked]:
            step(op, key)
        for m in range(n_acked, len(intent_ops) + 1):
            if recovered == oracle:
                return m, n_acked, len(intent_ops)
            if m < len(intent_ops):
                step(*intent_ops[m])
        pytest.fail(
            f"recovered state matches no acknowledged prefix "
            f"(acked={n_acked}, attempted={len(intent_ops)})"
        )

    def test_sigkill_mid_wal_append(self, tmp_path):
        work = self.run_kill(tmp_path, ckpt_every=0)
        m, n_acked, n_intent = \
            self.check_recovery_matches_acknowledged_prefix(work)
        assert n_acked <= m <= n_intent

    def test_sigkill_mid_checkpoint(self, tmp_path):
        work = self.run_kill(tmp_path, ckpt_every=25, kill_after_acks=180)
        m, n_acked, n_intent = \
            self.check_recovery_matches_acknowledged_prefix(work)
        assert n_acked <= m <= n_intent


# ----------------------------------------------------------------------
# serving-layer integration: group commit + background checkpoints
# ----------------------------------------------------------------------
class TestServeDurable:
    def test_group_commit_acks_and_background_checkpoints(self, tmp_path):
        index = build(make_keys(2000))
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="group")

        async def run():
            async with IndexServer(
                index, durability=mgr, checkpoint_interval=0.05
            ) as server:
                for k in fresh_keys(64, seed=41):
                    await server.insert(k)
                    # the await contract: once a write returns, it is on
                    # disk — the group fsync covered its LSN
                    assert mgr.durable_lsn >= mgr.last_lsn
                await server.checkpoint()
                snap = server.stats.snapshot()
                assert snap["checkpoints"] >= 1
                assert snap["group_commits"] >= 1
                deadline = time.monotonic() + 5
                while (server.stats.background_checkpoints == 0
                       and time.monotonic() < deadline):
                    await asyncio.sleep(0.02)
                assert server.stats.background_checkpoints >= 1
                assert server.checkpoint_error is None

        asyncio.run(run())
        crash = crash_image(tmp_path / "db", tmp_path / "crash")
        mgr.close()
        rec = DurabilityManager.recover(crash)
        assert_same_keys(rec.index, index)
        rec.close()

    def test_concurrent_writers_share_one_fsync(self, tmp_path):
        index = build(make_keys(2000))
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="group")

        async def run():
            async with IndexServer(index, durability=mgr) as server:
                keys = fresh_keys(200, seed=43)
                await asyncio.gather(
                    *(server.insert(k) for k in keys)
                )
                assert mgr.durable_lsn >= mgr.last_lsn
                return server.stats.snapshot()

        snap = asyncio.run(run())
        # far fewer fsyncs than writes is the whole point of group commit
        assert 1 <= snap["group_commits"] < 200
        mgr.close()

    def test_group_commit_outlives_a_cancelled_writer(self, tmp_path):
        index = build(make_keys(2000))
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="group")
        gate = threading.Event()
        commit = mgr.commit

        def gated_commit():
            gate.wait(5)
            return commit()

        async def run():
            async with IndexServer(index, durability=mgr) as server:
                mgr.commit = gated_commit
                a, b = fresh_keys(2, seed=47)
                leader = asyncio.ensure_future(server.insert(a))
                rider = asyncio.ensure_future(server.insert(b))
                await asyncio.sleep(0.05)  # both parked on the fsync
                leader.cancel()
                gate.set()
                await rider  # the leader's fsync still acknowledges it
                assert mgr.durable_lsn >= mgr.last_lsn
                assert leader.cancelled()

        asyncio.run(run())
        mgr.close()

    def test_failed_group_commit_fails_its_writers_only(self, tmp_path):
        index = build(make_keys(2000))
        mgr = DurabilityManager.create(index, tmp_path / "db", sync="group")
        commit = mgr.commit

        def broken_commit():
            raise OSError("disk full")

        async def run():
            async with IndexServer(index, durability=mgr) as server:
                mgr.commit = broken_commit
                a, b, c = fresh_keys(3, seed=53)
                results = await asyncio.gather(
                    server.insert(a), server.insert(b),
                    return_exceptions=True)
                assert [type(r) for r in results] == [OSError, OSError]
                mgr.commit = commit
                await server.insert(c)  # the next group commits normally
                assert mgr.durable_lsn >= mgr.last_lsn
                assert server.stats.group_commits == 1

        asyncio.run(run())
        mgr.close()

    def test_checkpoint_interval_requires_durability(self):
        index = build(make_keys(200))
        with pytest.raises(ValueError, match="durability"):
            IndexServer(index, checkpoint_interval=1.0)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            IndexServer(index, durability=object(), checkpoint_interval=0)

    def test_server_checkpoint_without_durability_raises(self):
        index = build(make_keys(200))

        async def run():
            async with IndexServer(index) as server:
                with pytest.raises(ValueError, match="durability"):
                    await server.checkpoint()

        asyncio.run(run())


# ----------------------------------------------------------------------
# runtime durability sanitizer (repro.analysis.sanitizers)
# ----------------------------------------------------------------------
class TestDurabilitySanitizer:
    """The RPR3xx invariant at runtime: apply order equals LSN order,
    every content-changing write is logged exactly once, and the durable
    LSN never moves backwards."""

    def test_clean_lifecycle(self, tmp_path):
        from repro.analysis import DurabilitySanitizer

        index = build(make_keys(1000))
        oracle = [int(k) for k in index.keys]
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            san = DurabilitySanitizer.install(mgr)
            try:
                apply_mixed(index, oracle, 120, seed=21)
                mgr.wal.commit()
                mgr.checkpoint()
                # checkpoint rotates the WAL in place; the wrapped
                # methods must keep validating post-rotation appends
                apply_mixed(index, oracle, 60, seed=22)
                mgr.wal.commit()
            finally:
                san.uninstall()
        rec = DurabilityManager.recover(tmp_path / "db")
        try:
            assert sorted(oracle) == np.sort(rec.index.keys).tolist()
        finally:
            rec.close()

    def test_rogue_append_breaks_apply_order(self, tmp_path):
        from repro.analysis import DurabilitySanitizer, SanitizerError
        from repro.engine.wal import OP_INSERT

        index = build(make_keys(500))
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            san = DurabilitySanitizer.install(mgr)
            try:
                # log a write that was never applied to the index: the
                # next real insert sees two appends for one event
                mgr.wal.append(OP_INSERT, 0, 7)
                with pytest.raises(SanitizerError, match="2 WAL appends"):
                    index.insert(next(iter(fresh_keys(1, seed=31))))
            finally:
                san.uninstall()

    def test_mismatched_tail_record_detected(self, tmp_path):
        from repro.analysis import DurabilitySanitizer, SanitizerError
        from repro.engine.wal import OP_DELETE

        index = build(make_keys(500))
        with DurabilityManager.create(index, tmp_path / "db") as mgr:
            # under REPRO_SANITIZE=1 install_global() already attached a
            # sanitizer; detach it so only ours observes the evil logger
            global_san = getattr(mgr, "_durability_sanitizer", None)
            if global_san is not None:
                global_san.uninstall()
            # replace the manager's listener with one that logs the
            # wrong opcode, simulating an apply/log divergence
            index.remove_write_listener(mgr._on_write)

            def evil(event):
                if event.kind in ("insert", "delete"):
                    mgr.wal.append(OP_DELETE, event.shard, event.key)

            index.add_write_listener(evil)
            san = DurabilitySanitizer.install(mgr)
            try:
                with pytest.raises(SanitizerError,
                                   match="does not match WriteEvent"):
                    index.insert(next(iter(fresh_keys(1, seed=32))))
            finally:
                san.uninstall()
                index.remove_write_listener(evil)
                # restore the real listener so close() finds it
                index.add_write_listener(mgr._on_write)
