"""Leader half of replication: segment shipping + WAL-tail streaming.

Two services share one framed TLV connection per follower
(:mod:`repro.net.protocol`):

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
  bounded LSN-keyed :class:`_RecordBuffer`, and pushed
  as columnar frames — only records at or below ``durable_lsn``, so a
  follower never applies a write the leader could lose in a crash.

``repl_subscribe`` decides *resume vs. resync*: if the on-disk WAL
still holds every record past the follower's cursor (``from_lsn``),
the backlog streams and live pushes take over; a gap (the leader GC'd
the needed generations — see ``keep_generations``) or a cursor ahead
of the leader (diverged history) answers ``mode="resync"`` and the
follower re-ships the whole generation instead.

Op table (requests are ``{"op", "id", ...}`` dicts; pushes carry a
``"kind"`` and no id):

==================  ==================================================
``repl_hello``      → generation, last/durable LSN, key dtype, size
``repl_manifest``   pin + return the published manifest and file sizes
``repl_fetch``      ``name``, ``offset`` → one chunk of a pinned segment
``repl_subscribe``  ``from_lsn`` → ``mode="stream"`` (backlog pushed)
                    or ``mode="resync"``
``repl_ack``        follower progress report (no response)
``repl_unpin``      release this connection's generation pin
==================  ==================================================
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import numpy as np

from ..engine.wal import read_wal
from ..net.ops import error_response
from ..net.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from ..serve.stats import ServerStats

__all__ = ["ReplicationServer", "SegmentShipper", "WalStreamer"]

#: records per pushed WAL frame (8192 * ~21 bytes ≈ 172 KiB, far under
#: the frame limit even for 8-byte keys)
DEFAULT_BATCH_RECORDS = 8192

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
    """Bounded in-memory WAL tail, keyed by LSN.

    Record listeners fire per append under the engine write lock, in
    LSN order; :meth:`run_from` still hands out only *contiguous* runs
    (a fault detector: a follower is never pushed past a gap).
    ``floor`` is the highest LSN the buffer no longer holds — a
    subscriber whose cursor falls below it missed evicted records and
    must resync from disk (or re-ship the generation).
    """

    def __init__(self, floor: int, capacity: int) -> None:
        self.capacity = capacity
        self.floor = floor
        self._lock = threading.Lock()
        self._records: dict[int, tuple[int, int, object]] = {}

    def add(self, lsn: int, op: int, shard: int, key) -> None:
        with self._lock:
            if lsn <= self.floor:
                return
            self._records[lsn] = (op, shard, key)
            while len(self._records) > self.capacity:
                oldest = min(self._records)
                del self._records[oldest]
                if oldest > self.floor:
                    self.floor = oldest

    def run_from(self, after_lsn: int, upto_lsn: int,
                 limit: int) -> list[tuple[int, int, int, object]]:
        """The contiguous run past ``after_lsn``, capped at ``limit``."""
        out: list[tuple[int, int, int, object]] = []
        with self._lock:
            lsn = after_lsn + 1
            while lsn <= upto_lsn and len(out) < limit:
                rec = self._records.get(lsn)
                if rec is None:
                    break
                out.append((lsn, rec[0], rec[1], rec[2]))
                lsn += 1
        return out


class _Follower:
    """Per-connection replication state (one subscribed follower)."""

    def __init__(self, fid: int, rec, writer: asyncio.StreamWriter) -> None:
        self.fid = fid
        self.rec = rec  # FollowerStats
        self.writer = writer
        self.streaming = False
        self.sent_lsn = 0
        self.pin_token: int | None = None
        self.manifest: dict | None = None


class SegmentShipper:
    """Serves pinned checkpoint generations in chunked segment fetches."""

    def __init__(self, manager, *, chunk_bytes: int = 256 * 1024) -> None:
        self.manager = manager
        self.chunk_bytes = chunk_bytes

    async def manifest(self, follower: _Follower) -> dict:
        """Pin the published generation for ``follower`` and describe it."""
        self.release(follower)
        token, manifest = self.manager.pin_current()
        follower.pin_token = token
        follower.manifest = manifest
        loop = asyncio.get_running_loop()
        sizes = await loop.run_in_executor(
            None, self._sizes, list(manifest["segments"]))
        return {"manifest": manifest, "sizes": sizes}

    def _sizes(self, names: list[str]) -> dict[str, int]:
        root = self.manager.root
        return {name: (root / name).stat().st_size for name in names}

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
            self.chunk_bytes)
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
    driven by the server's flush loop — pushes whatever contiguous,
    durable records accumulated in the in-memory buffer since.
    """

    def __init__(self, manager, *,
                 buffer_records: int = 65536,
                 batch_records: int = DEFAULT_BATCH_RECORDS,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.manager = manager
        self.batch_records = batch_records
        self.max_frame = max_frame
        self.buffer = _RecordBuffer(floor=0, capacity=buffer_records)
        self._attached = False

    # ------------------------------------------------------------------
    # record capture
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start capturing records at the engine apply point."""
        if self._attached:
            return
        self.manager.add_record_listener(self._on_record)
        # records at or below the floor predate the tap; subscribers
        # needing them read the on-disk backlog at subscribe time
        self.buffer.floor = max(self.buffer.floor, self.manager.last_lsn)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.manager.remove_record_listener(self._on_record)
            self._attached = False

    def _on_record(self, lsn: int, op: int, shard: int, key) -> None:
        # fires under the engine write lock: just buffer it
        self.buffer.add(lsn, op, shard, key)

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
        for start in range(0, len(records), self.batch_records):
            chunk = records[start:start + self.batch_records]
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
                follower.sent_lsn, upto, self.batch_records)
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


class ReplicationServer:
    """TCP replication endpoint over one leader's durability manager.

    Wraps a :class:`~repro.engine.durability.DurabilityManager` (the
    index keeps serving through whatever front end it already has) and
    speaks the op table in the module docstring.  Follower health
    lands in ``stats.followers`` (:class:`~repro.serve.stats.FollowerStats`)
    — pass the serving tier's :class:`~repro.serve.stats.ServerStats`
    to surface replication in its snapshot, or let it create its own.
    """

    def __init__(
        self,
        manager,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        stats: ServerStats | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        flush_interval: float = 0.02,
        heartbeat_interval: float = 1.0,
        buffer_records: int = 65536,
        chunk_bytes: int = 256 * 1024,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.stats = stats if stats is not None else ServerStats()
        self.max_frame = max_frame
        self.flush_interval = flush_interval
        self.heartbeat_interval = heartbeat_interval
        self.shipper = SegmentShipper(manager, chunk_bytes=chunk_bytes)
        self.streamer = WalStreamer(
            manager, buffer_records=buffer_records, max_frame=max_frame)
        self._followers: dict[int, _Follower] = {}
        self._server: asyncio.base_events.Server | None = None
        self._flusher: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Attach the WAL tap, bind, start the flush loop."""
        self.streamer.attach()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._flusher = asyncio.create_task(self._flush_loop())
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def close(self) -> None:
        """Stop the flusher, detach the tap, drop every follower."""
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except (asyncio.CancelledError, Exception):
                pass
            self._flusher = None
        self.streamer.detach()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for follower in list(self._followers.values()):
            follower.writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        self._followers.clear()

    async def __aenter__(self) -> "ReplicationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # flush loop
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        loop = asyncio.get_running_loop()
        last_hb = loop.time()
        while True:
            await asyncio.sleep(self.flush_interval)
            manager = self.manager
            if manager.needs_commit:
                try:
                    await loop.run_in_executor(None, manager.commit)
                except Exception:
                    continue  # manager closing mid-shutdown
            hb_due = loop.time() - last_hb >= self.heartbeat_interval
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

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        fid, rec = self.stats.open_follower(str(peer))
        follower = _Follower(fid, rec, writer)
        self._followers[fid] = follower
        self._conn_tasks.add(asyncio.current_task())
        decoder = FrameDecoder(self.max_frame)
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                try:
                    msgs = decoder.feed(data)
                except ProtocolError as exc:
                    self._reply(follower, {
                        "id": None, "ok": False,
                        "error": "ProtocolError", "message": str(exc),
                    })
                    break
                for msg in msgs:
                    await self._handle(follower, msg)
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, TimeoutError,
                OSError):
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            follower.streaming = False
            self._followers.pop(fid, None)
            self.shipper.release(follower)
            self.stats.close_follower(fid)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle(self, follower: _Follower, msg) -> None:
        if not isinstance(msg, dict) or not isinstance(msg.get("op"), str):
            self._reply(follower, {
                "id": None, "ok": False, "error": "ProtocolError",
                "message": "request must be a dict with a string 'op'",
            })
            return
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
                r = await self.shipper.manifest(follower)
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
                return  # fire-and-forget: no response frame
            elif op == "repl_unpin":
                self.shipper.release(follower)
                r = True
            else:
                raise ValueError(f"unknown replication op {op!r}")
        except Exception as exc:
            self._reply(follower, error_response(rid, exc))
            return
        self._reply(follower, {"id": rid, "ok": True, "r": r})

    def _reply(self, follower: _Follower, payload: dict) -> None:
        try:
            data = encode_frame(payload, self.max_frame)
        except ProtocolError as exc:
            data = encode_frame(
                error_response(payload.get("id"), exc), self.max_frame)
        if not follower.writer.is_closing():
            follower.writer.write(data)

    def describe(self) -> dict:
        """One-line health dict: address, followers, stream state."""
        return {
            "address": list(self.address),
            "followers": len(self._followers),
            "streaming": sum(
                1 for f in self._followers.values() if f.streaming),
            "buffer_floor": self.streamer.buffer.floor,
            "last_lsn": self.manager.last_lsn,
            "durable_lsn": self.manager.durable_lsn,
            "generation": self.manager.generation,
        }
