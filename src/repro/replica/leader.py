"""Leader half of replication: segment shipping + WAL-tail streaming.

Replication rides the serving wire.  A follower connects to the
leader's ordinary :class:`~repro.net.server.NetServer` address and
sends ``repl_*`` ops (the op table is in :mod:`repro.net.server`); when
the served index is durable, ``NetServer`` hands them to this module's
:class:`ReplicationService`, which has no socket of its own:

* :class:`SegmentShipper` — serves the published checkpoint generation
  (segments + manifest) in chunked, checksum-verifiable fetches.  A
  follower's ``repl_manifest`` pins the generation against checkpoint
  GC (:meth:`~repro.engine.durability.DurabilityManager.pin_current`)
  so the files it is mid-fetch can never vanish under it; pins release
  on ``repl_unpin`` and on disconnect.
* :class:`WalStreamer` — tails committed WAL records to subscribed
  followers.  Records are captured at the engine apply point (a
  :meth:`~repro.engine.durability.DurabilityManager.add_record_listener`
  tap fires under the engine write lock, in LSN order), held in a
  bounded ring (:class:`_RecordBuffer`), and pushed as columnar frames
  — only records at or below ``durable_lsn``, so a follower never
  applies a write the leader could lose in a crash.
* :class:`ReplicationService` — per-connection follower state and the
  flush/heartbeat loop.  Nothing starts before the first ``repl_*``
  request: a durable server no follower contacts runs no record tap,
  no timer and no extra commits.  Both stop again when the last
  follower's connection ends.

``repl_subscribe`` decides *resume vs. resync*: if the on-disk WAL
still holds every record past the follower's cursor (``from_lsn``),
the backlog streams and live pushes take over; a gap (the leader GC'd
the needed generations — see ``keep_generations``) or a cursor ahead
of the leader (diverged history) answers ``mode="resync"`` and the
follower re-ships the whole generation instead.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np

from ..engine.wal import read_wal
from ..net.ops import error_response
from ..net.protocol import DEFAULT_MAX_FRAME, encode_frame
from ..serve.stats import ServerStats

__all__ = ["ReplicationService", "SegmentShipper", "WalStreamer"]

#: records per pushed WAL frame (8192 * ~21 bytes ≈ 172 KiB, far under
#: the frame limit even for 8-byte keys)
BATCH_RECORDS = 8192

#: WAL records the in-memory tail keeps for followers catching up live
BUFFER_RECORDS = 65536

#: bytes per ``repl_fetch`` segment chunk
CHUNK_BYTES = 256 * 1024

#: how often the flush loop commits and pushes newly durable records
FLUSH_INTERVAL = 0.02

#: how often a streaming follower hears the leader's head LSN
HEARTBEAT_INTERVAL = 1.0

#: per-connection transport write-buffer high water: stop pushing to a
#: follower that stopped reading instead of buffering without bound
_HIGH_WATER = 32 * 1024 * 1024


def _read_chunk(path: Path, offset: int, size: int) -> tuple[bytes, int]:
    """One ``(chunk, total file size)`` read (sync; run in an executor)."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        total = fh.tell()
        fh.seek(offset)
        data = fh.read(size)
    return data, total


class _RecordBuffer:
    """Bounded in-memory WAL tail: a ring of the newest ``capacity`` LSNs.

    Record listeners fire per append under the engine write lock, in
    LSN order, so the buffer holds one contiguous run ``(floor, last]``:
    an append and the eviction it implies are O(1), and
    :meth:`run_from` costs O(records returned).  ``floor`` is the
    highest LSN the buffer no longer holds — a subscriber whose cursor
    falls below it missed evicted records and must resync from disk
    (or re-ship the generation).  Fault detector: an LSN that does not
    continue the run drops the run and raises ``floor`` to just below
    it, so no follower is ever pushed across a gap.  Never raises — the
    listener runs after the engine already applied the write.
    """

    def __init__(self, floor: int, capacity: int) -> None:
        self.capacity = capacity
        self.floor = self.last = floor
        self._ring: list = [None] * capacity
        self._lock = threading.Lock()

    def add(self, lsn: int, op: int, shard: int, key) -> None:
        with self._lock:
            if lsn != self.last + 1:
                self.floor = max(self.floor, lsn - 1)
            self.last = lsn
            self._ring[lsn % self.capacity] = (lsn, op, shard, key)
            self.floor = max(self.floor, lsn - self.capacity)

    def raise_floor(self, lsn: int) -> None:
        """Forget everything at or below ``lsn``."""
        with self._lock:
            self.floor = max(self.floor, lsn)
            self.last = max(self.last, self.floor)

    def run_from(self, after_lsn: int, upto_lsn: int,
                 limit: int) -> list[tuple[int, int, int, object]]:
        """The contiguous run past ``after_lsn``, capped at ``limit``
        (empty when ``after_lsn`` is below the floor)."""
        with self._lock:
            stop = min(upto_lsn, self.last, after_lsn + limit)
            if after_lsn < self.floor or stop <= after_lsn:
                return []
            first = (after_lsn + 1) % self.capacity
            end = stop % self.capacity + 1
            if first < end:
                return self._ring[first:end]
            return self._ring[first:] + self._ring[:end]


class _Follower:
    """Per-connection replication state (one follower)."""

    def __init__(self, conn, writer: asyncio.StreamWriter) -> None:
        self.conn = conn  # ConnectionStats
        self.rec = conn.follower  # FollowerStats
        self.writer = writer
        self.streaming = False
        self.sent_lsn = 0
        self.pin_token: int | None = None
        self.manifest: dict | None = None


class SegmentShipper:
    """Serves pinned checkpoint generations in chunked segment fetches."""

    def __init__(self, manager) -> None:
        self.manager = manager

    def manifest(self, follower: _Follower) -> dict:
        """Pin the published generation for ``follower`` and describe it."""
        self.release(follower)
        follower.pin_token, follower.manifest = self.manager.pin_current()
        return {"manifest": follower.manifest}

    async def fetch(self, follower: _Follower, name, offset) -> dict:
        """One chunk of a pinned segment file: ``{data, eof, size}``.

        Only names listed in this follower's pinned manifest are
        servable — the whitelist is also what makes the path safe (no
        client-supplied path ever reaches the filesystem).
        """
        if not isinstance(name, str) or not isinstance(offset, int) \
                or offset < 0:
            raise ValueError("repl_fetch needs a segment name and a "
                             "non-negative integer offset")
        manifest = follower.manifest
        if follower.pin_token is None or manifest is None \
                or name not in manifest["segments"]:
            raise ValueError(
                f"segment {name!r} is not in this connection's pinned "
                "generation (call repl_manifest first)")
        loop = asyncio.get_running_loop()
        data, total = await loop.run_in_executor(
            None, _read_chunk, self.manager.root / name, offset,
            CHUNK_BYTES)
        follower.rec.ship_bytes += len(data)
        return {"data": data, "eof": offset + len(data) >= total,
                "size": total}

    def release(self, follower: _Follower) -> None:
        """Drop the follower's generation pin (idempotent)."""
        if follower.pin_token is not None:
            self.manager.unpin(follower.pin_token)
            follower.pin_token = None
            follower.manifest = None


class WalStreamer:
    """Tails committed WAL records to subscribed followers.

    :meth:`subscribe` resolves a follower's cursor against the on-disk
    WAL (resume vs. resync) and pushes the backlog; :meth:`tick` —
    driven by the service's flush loop — pushes whatever contiguous,
    durable records accumulated in the in-memory buffer since.
    """

    def __init__(self, manager, *,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.manager = manager
        self.max_frame = max_frame
        self.buffer = _RecordBuffer(floor=0, capacity=BUFFER_RECORDS)
        self._attached = False

    # ------------------------------------------------------------------
    # record capture
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start capturing records at the engine apply point."""
        if self._attached:
            return
        self.manager.add_record_listener(self.buffer.add)
        # records at or below the floor predate the tap; subscribers
        # needing them read the on-disk backlog at subscribe time
        self.buffer.raise_floor(self.manager.last_lsn)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.manager.remove_record_listener(self.buffer.add)
            self._attached = False

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    async def subscribe(self, follower: _Follower, from_lsn: int) -> dict:
        """Resume the stream past ``from_lsn``, or demand a resync."""
        follower.streaming = False
        manager = self.manager
        loop = asyncio.get_running_loop()
        # one commit so the on-disk WAL holds every acknowledged record
        await loop.run_in_executor(None, manager.commit)
        head = manager.durable_lsn
        if from_lsn > head:
            follower.rec.resyncs += 1
            return {"mode": "resync",
                    "reason": f"follower LSN {from_lsn} is ahead of the "
                              f"leader ({head}) — diverged history"}
        records = []
        if from_lsn < head:
            records = await loop.run_in_executor(
                None, self._disk_backlog, from_lsn)
            if not records or records[0].lsn != from_lsn + 1:
                follower.rec.resyncs += 1
                return {"mode": "resync",
                        "reason": f"records past LSN {from_lsn} were "
                                  "garbage-collected (raise "
                                  "keep_generations to resume farther "
                                  "back)"}
        follower.rec.subscribed_from = from_lsn
        key_dtype = manager.wal.key_dtype
        sent = from_lsn
        for start in range(0, len(records), BATCH_RECORDS):
            chunk = records[start:start + BATCH_RECORDS]
            self._push_frame(follower, _wal_frame(
                [r.lsn for r in chunk], [r.op for r in chunk],
                [r.shard for r in chunk], [r.key for r in chunk],
                key_dtype))
            sent = chunk[-1].lsn
            await follower.writer.drain()
        follower.sent_lsn = sent
        follower.streaming = True
        return {"mode": "stream", "start_lsn": from_lsn + 1,
                "last_lsn": manager.last_lsn}

    def _disk_backlog(self, from_lsn: int):
        records, _torn = read_wal(self.manager.root / "wal")
        return [r for r in records if r.lsn > from_lsn]

    # ------------------------------------------------------------------
    # live pushes
    # ------------------------------------------------------------------
    def tick(self, follower: _Follower) -> int:
        """Push contiguous durable records past the follower's cursor.

        Returns the number of records pushed.  A cursor that fell below
        the buffer floor (eviction outran this follower) downgrades it
        to ``resync`` — it will re-subscribe and resolve against disk.
        """
        if not follower.streaming:
            return 0
        transport = follower.writer.transport
        if transport is None \
                or transport.get_write_buffer_size() > _HIGH_WATER:
            return 0
        if follower.sent_lsn < self.buffer.floor:
            follower.streaming = False
            follower.rec.resyncs += 1
            self._push_frame(follower, {"kind": "resync"})
            return 0
        upto = self.manager.durable_lsn
        key_dtype = self.manager.wal.key_dtype
        pushed = 0
        while True:
            run = self.buffer.run_from(
                follower.sent_lsn, upto, BATCH_RECORDS)
            if not run:
                break
            self._push_frame(follower, _wal_frame(
                [r[0] for r in run], [r[1] for r in run],
                [r[2] for r in run], [r[3] for r in run], key_dtype))
            follower.rec.streamed_records += len(run)
            follower.sent_lsn = run[-1][0]
            pushed += len(run)
            if transport.get_write_buffer_size() > _HIGH_WATER:
                break
        return pushed

    def _push_frame(self, follower: _Follower, payload: dict) -> None:
        data = encode_frame(payload, self.max_frame)
        follower.rec.stream_bytes += len(data)
        if not follower.writer.is_closing():
            follower.conn.bytes_out += len(data)
            follower.writer.write(data)


def _wal_frame(lsns, ops, shards, keys, key_dtype: np.dtype) -> dict:
    """Columnar push frame for one run of WAL records."""
    return {
        "kind": "wal",
        "lsn": np.asarray(lsns, dtype=np.uint64),
        "op": np.asarray(ops, dtype=np.uint8),
        "shard": np.asarray(shards, dtype=np.uint32),
        "key": np.asarray(keys, dtype=key_dtype),
    }


class ReplicationService:
    """The ``repl_*`` ops of one durable :class:`~repro.net.server.NetServer`.

    Has no socket: the server's connection loop passes it each
    ``repl_*`` request with that connection's stats record and writer
    (:meth:`handle`), and calls :meth:`release` when the connection
    ends.  A connection's first ``repl_*`` op makes it a follower — its
    counters (:class:`~repro.serve.stats.FollowerStats`) live on its
    connection record — and the first one overall starts the record
    tap and the flush loop, which run until the last follower's
    connection ends.
    """

    def __init__(self, manager, stats: ServerStats, max_frame: int) -> None:
        self.manager = manager
        self.stats = stats
        self.shipper = SegmentShipper(manager)
        self.streamer = WalStreamer(manager, max_frame=max_frame)
        self._followers: dict[asyncio.StreamWriter, _Follower] = {}
        self._flusher: asyncio.Task | None = None

    async def handle(self, conn, writer, msg: dict) -> dict | None:
        """Answer one ``repl_*`` request (``repl_ack`` gets no answer)."""
        follower = self._followers.get(writer)
        if follower is None:
            if self._flusher is None:
                self.streamer.attach()
                self._flusher = asyncio.create_task(self._flush_loop())
            self.stats.open_follower(conn)
            follower = _Follower(conn, writer)
            self._followers[writer] = follower
        op = msg["op"]
        rid = msg.get("id")
        manager = self.manager
        try:
            if op == "repl_hello":
                r: object = {
                    "generation": manager.generation,
                    "last_lsn": manager.last_lsn,
                    "durable_lsn": manager.durable_lsn,
                    "key_dtype": manager.wal.key_dtype.str,
                    "keys": len(manager.index),
                }
            elif op == "repl_manifest":
                r = self.shipper.manifest(follower)
            elif op == "repl_fetch":
                r = await self.shipper.fetch(
                    follower, msg.get("name"), msg.get("offset"))
            elif op == "repl_subscribe":
                r = await self.streamer.subscribe(
                    follower, int(msg.get("from_lsn", 0)))
            elif op == "repl_ack":
                acked = int(msg.get("lsn", 0))
                follower.rec.acked_lsn = max(follower.rec.acked_lsn, acked)
                follower.rec.lag_lsn = max(0, manager.last_lsn - acked)
                follower.rec.lag_s = float(msg.get("lag_s", 0.0))
                return None  # fire-and-forget: no response frame
            else:  # repl_unpin
                self.shipper.release(follower)
                r = True
        except Exception as exc:
            return error_response(rid, exc)
        return {"id": rid, "ok": True, "r": r}

    def release(self, writer: asyncio.StreamWriter) -> None:
        """Forget a closed connection's follower state and its pin; the
        last follower to leave stops the flush loop and the tap."""
        follower = self._followers.pop(writer, None)
        if follower is None:
            return
        follower.streaming = False
        self.shipper.release(follower)
        if not self._followers and self._flusher is not None:
            self._flusher.cancel()
            self._flusher = None
            self.streamer.detach()

    async def close(self) -> None:
        """Stop the flush loop, detach the tap, release every pin."""
        flusher, self._flusher = self._flusher, None
        if flusher is not None:
            flusher.cancel()
            await asyncio.gather(flusher, return_exceptions=True)
        self.streamer.detach()
        for writer in list(self._followers):
            self.release(writer)

    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        manager = self.manager
        last_hb = loop.time()
        while True:
            await asyncio.sleep(FLUSH_INTERVAL)
            if manager.needs_commit:
                try:
                    await loop.run_in_executor(None, manager.commit)
                except Exception:
                    continue  # manager closing mid-shutdown
            hb_due = loop.time() - last_hb >= HEARTBEAT_INTERVAL
            for follower in list(self._followers.values()):
                try:
                    self.streamer.tick(follower)
                    if hb_due and follower.streaming:
                        self.streamer._push_frame(follower, {
                            "kind": "hb",
                            "last_lsn": manager.last_lsn,
                            "durable_lsn": manager.durable_lsn,
                            "generation": manager.generation,
                        })
                except (ConnectionError, OSError):
                    follower.streaming = False
            if hb_due:
                last_hb = loop.time()

    def describe(self) -> dict:
        """One-line health dict: followers, stream state, LSNs."""
        return {
            "followers": len(self._followers),
            "streaming": sum(
                1 for f in self._followers.values() if f.streaming),
            "buffer_floor": self.streamer.buffer.floor,
            "last_lsn": self.manager.last_lsn,
            "durable_lsn": self.manager.durable_lsn,
            "generation": self.manager.generation,
        }
