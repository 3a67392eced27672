"""WAL framing, group commit, rotation and torn-tail semantics.

The format contract under test (:mod:`repro.engine.wal`): CRC-framed
records in one append-only file per numbered generation; readers
tolerate a torn final frame (crash mid-append: what is left is a prefix
of the applied history), and refuse mid-file corruption (bit rot is not
a crash artifact) and old per-shard-lane layouts.
"""

from __future__ import annotations

import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    OP_DELETE,
    OP_INSERT,
    WAL_SYNC_MODES,
    WalError,
    WalWriter,
    list_generations,
    read_generation,
    read_wal,
)


def make_writer(tmp_path, **kwargs):
    kwargs.setdefault("sync", "group")
    return WalWriter(tmp_path / "wal", np.dtype(np.uint64), **kwargs)


def gen_path(tmp_path, generation):
    return tmp_path / "wal" / f"g{generation:010d}.wal"


# ----------------------------------------------------------------------
# framing round trips
# ----------------------------------------------------------------------
class TestFraming:
    def test_lsns_are_monotonic_and_start_at_start_lsn(self, tmp_path):
        with make_writer(tmp_path, start_lsn=500) as wal:
            assert wal.append(OP_INSERT, 0, 1) == 500
            assert wal.append(OP_INSERT, 1, 2) == 501
            assert wal.last_lsn == 501
            assert wal.next_lsn == 502

    def test_key_dtype_round_trips(self, tmp_path):
        big = (1 << 63) + 12345  # exercises the full uint64 domain
        with make_writer(tmp_path) as wal:
            wal.append(OP_INSERT, 0, big)
        records, _ = read_wal(tmp_path / "wal")
        assert int(records[0].key) == big
        assert records[0].key.dtype == np.dtype(np.uint64)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from([OP_INSERT, OP_DELETE]),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, ops):
        tmp_path = tmp_path_factory.mktemp("wal-prop")
        with make_writer(tmp_path) as wal:
            expect = [(wal.append(op, shard, key), op, shard, key)
                      for op, shard, key in ops]
        records, torn = read_wal(tmp_path / "wal")
        assert not torn
        assert [(r.lsn, r.op, r.shard, int(r.key)) for r in records] \
            == expect


# ----------------------------------------------------------------------
# durability bookkeeping
# ----------------------------------------------------------------------
class TestCommit:
    def test_commit_advances_durable_lsn(self, tmp_path):
        wal = make_writer(tmp_path)
        wal.append(OP_INSERT, 0, 1)
        wal.append(OP_INSERT, 0, 2)
        assert wal.durable_lsn == 0
        assert wal.commit() == 2
        assert wal.durable_lsn == 2
        wal.close()

    def test_group_ops_backstop_auto_commits(self, tmp_path):
        wal = make_writer(tmp_path, group_ops=8)
        for i in range(8):
            wal.append(OP_INSERT, 0, i)
        assert wal.durable_lsn == 8  # backstop fired on the 8th append
        wal.close()

    def test_always_mode_commits_every_append(self, tmp_path):
        wal = make_writer(tmp_path, sync="always")
        for i in range(3):
            lsn = wal.append(OP_INSERT, 0, i)
            assert wal.durable_lsn == lsn
        wal.close()

    def test_async_mode_flushes_on_commit(self, tmp_path):
        wal = make_writer(tmp_path, sync="async")
        wal.append(OP_INSERT, 0, 7)
        wal.commit()
        records, torn = read_wal(tmp_path / "wal")
        assert not torn and len(records) == 1
        wal.close()

    def test_close_commits_and_rejects_appends(self, tmp_path):
        wal = make_writer(tmp_path)
        wal.append(OP_INSERT, 0, 1)
        wal.close()
        records, _ = read_wal(tmp_path / "wal")
        assert len(records) == 1
        with pytest.raises(WalError, match="closed"):
            wal.append(OP_INSERT, 0, 2)
        wal.close()  # idempotent

    def test_commit_is_one_fsync_however_many_shards(
            self, tmp_path, monkeypatch):
        wal = make_writer(tmp_path)
        for shard in range(4):
            wal.append(OP_INSERT, shard, shard)
        synced = []
        monkeypatch.setattr("repro.engine.wal.os.fsync", synced.append)
        assert wal.commit() == 4
        assert len(synced) == 1
        monkeypatch.undo()
        wal.close()
        assert len(list((tmp_path / "wal").iterdir())) == 1

    def test_append_is_not_parked_behind_an_inflight_fsync(
            self, tmp_path, monkeypatch):
        """The serving layer runs group fsyncs off the event loop; an
        append arriving mid-fsync must return (it runs *on* the loop)
        and must not be covered by that commit's ``durable_lsn``."""
        wal = make_writer(tmp_path)
        wal.append(OP_INSERT, 0, 1)
        in_fsync, let_go = threading.Event(), threading.Event()

        def parked_fsync(fd):
            in_fsync.set()
            assert let_go.wait(timeout=10)

        monkeypatch.setattr("repro.engine.wal.os.fsync", parked_fsync)
        committed = []
        committer = threading.Thread(
            target=lambda: committed.append(wal.commit()))
        committer.start()
        assert in_fsync.wait(timeout=10)
        appended = []
        appender = threading.Thread(
            target=lambda: appended.append(wal.append(OP_INSERT, 1, 2)))
        appender.start()
        appender.join(timeout=5)
        stuck = appender.is_alive()
        let_go.set()
        committer.join(timeout=10)
        appender.join(timeout=10)
        assert not committer.is_alive() and not appender.is_alive()
        assert not stuck, "append() blocked for the length of the fsync"
        assert appended == [2]
        assert committed == [1] and wal.durable_lsn == 1
        monkeypatch.undo()
        assert wal.commit() == 2
        wal.close()

    def test_invalid_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sync"):
            make_writer(tmp_path, sync="sometimes")
        assert set(WAL_SYNC_MODES) == {"always", "group", "async"}


# ----------------------------------------------------------------------
# generations
# ----------------------------------------------------------------------
class TestGenerations:
    def test_rotate_and_min_generation_filter(self, tmp_path):
        with make_writer(tmp_path, generation=1) as wal:
            wal.append(OP_INSERT, 0, 10)
            wal.rotate(2)
            assert wal.generation == 2
            wal.append(OP_INSERT, 0, 20)
        assert list_generations(tmp_path / "wal") == [1, 2]
        all_records, _ = read_wal(tmp_path / "wal")
        assert [int(r.key) for r in all_records] == [10, 20]
        tail, _ = read_wal(tmp_path / "wal", min_generation=2)
        assert [int(r.key) for r in tail] == [20]

    def test_rotate_backwards_rejected(self, tmp_path):
        with make_writer(tmp_path, generation=3) as wal:
            with pytest.raises(WalError, match="backwards"):
                wal.rotate(3)

    def test_drop_generations_below(self, tmp_path):
        with make_writer(tmp_path, generation=1) as wal:
            wal.append(OP_INSERT, 0, 1)
            wal.rotate(2)
            wal.append(OP_INSERT, 0, 2)
            wal.rotate(3)
            wal.append(OP_INSERT, 0, 3)
            assert wal.drop_generations_below(3) == 2
        assert list_generations(tmp_path / "wal") == [3]
        records, _ = read_wal(tmp_path / "wal")
        assert [int(r.key) for r in records] == [3]


# ----------------------------------------------------------------------
# crash artifacts
# ----------------------------------------------------------------------
class TestTornTail:
    def write_log(self, tmp_path, n=5):
        with make_writer(tmp_path, sync="always") as wal:
            for i in range(n):
                wal.append(OP_INSERT, 0, i)
        return gen_path(tmp_path, 1)

    def test_truncated_final_frame_is_a_torn_tail(self, tmp_path):
        path = self.write_log(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])  # knife through the last frame
        records, torn = read_generation(path)
        assert torn
        assert [int(r.key) for r in records] == [0, 1, 2, 3]

    def test_corrupt_final_frame_is_a_torn_tail(self, tmp_path):
        path = self.write_log(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte inside the last frame
        path.write_bytes(bytes(blob))
        records, torn = read_generation(path)
        assert torn
        assert [int(r.key) for r in records] == [0, 1, 2, 3]

    def test_mid_file_corruption_is_not_a_crash(self, tmp_path):
        path = self.write_log(tmp_path)
        blob = bytearray(path.read_bytes())
        # corrupt a payload byte inside the FIRST frame: the intact
        # frames after it prove this is damage, not a torn tail
        frame0_start = len(blob) - 5 * self.FRAME_SIZE
        blob[frame0_start + 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError, match="corrupted mid-file"):
            read_generation(path)

    #: 8-byte frame header + (13-byte payload head + 8-byte uint64 key)
    FRAME_SIZE = 8 + 13 + 8

    def test_truncated_header_reads_as_empty_torn_lane(self, tmp_path):
        path = self.write_log(tmp_path, n=1)
        path.write_bytes(path.read_bytes()[:4])
        records, torn = read_generation(path)
        assert torn and records == []

    def test_wrong_magic_rejected(self, tmp_path):
        path = self.write_log(tmp_path, n=1)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WalError, match="bad magic"):
            read_generation(path)


class TestHeaderCompat:
    def test_dtype_mismatch_between_header_and_reader(self, tmp_path):
        """The file header carries the key dtype; readers honour it."""
        with WalWriter(tmp_path / "wal", np.dtype(np.int64)) as wal:
            wal.append(OP_INSERT, 0, -5)
        records, _ = read_wal(tmp_path / "wal")
        assert int(records[0].key) == -5
        assert records[0].key.dtype == np.dtype(np.int64)

    def test_future_version_rejected(self, tmp_path):
        path = self.bump_version(tmp_path)
        with pytest.raises(WalError, match="version"):
            read_generation(path)

    @staticmethod
    def bump_version(tmp_path):
        with make_writer(tmp_path, sync="always") as wal:
            wal.append(OP_INSERT, 0, 1)
        path = gen_path(tmp_path, 1)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        return path
