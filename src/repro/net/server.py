"""Asyncio TCP front end over :class:`~repro.serve.server.IndexServer`.

The socket-read boundary *is* the batch boundary: every scalar read
decoded from one TCP read is submitted to the server's micro-batcher
synchronously — no per-request task, no second future — and a
done-callback writes the response frame when the batch resolves.  One
read syscall's worth of pipelined requests therefore becomes one
executor dispatch, which is exactly how the in-process serving tier
amortises per-request overhead.

Request envelope (one TLV dict per frame, see :mod:`repro.net.protocol`):

==================  ===================================================
op                  fields / answer
==================  ===================================================
``ping``            → ``"pong"``
``lookup``          ``q`` scalar → int rank; list/ndarray → ndarray
``range``           ``lo``, ``hi`` scalar → int count; vectors → ndarray
``range_keys``      ``lo``, ``hi`` scalar → ndarray of keys
``insert``          ``key`` → owning shard id (durable on ack)
``delete``          ``key`` → shard id, or KeyError error frame
``stats``           → ``ServerStats.snapshot()`` + per-connection counters
``barrier``         drain the batcher (pending reads answer first) → ``True``
``repl_hello``      → generation, last/durable LSN, key dtype, size
``repl_manifest``   pin + return the published manifest
``repl_fetch``      ``name``, ``offset`` → one chunk of a pinned segment
``repl_subscribe``  ``from_lsn`` → ``mode="stream"`` (backlog pushed)
                    or ``mode="resync"``
``repl_ack``        ``lsn``, ``lag_s`` follower progress (no response)
``repl_unpin``      release this connection's generation pin → ``True``
==================  ===================================================

Responses are ``{"id", "ok": True, "r": ...}`` or ``{"id", "ok": False,
"error", "message"}``.  Framing violations (bad magic, oversized
prefix, undecodable TLV) answer one final error frame and close the
connection; request-level errors fail only their own request.

The ``repl_*`` ops are replication (:mod:`repro.replica.leader`) and
need a durable index; on any other they answer an error frame.  Once a
connection subscribes, the server also sends it *pushes* — frames with
a ``"kind"`` and no ``"id"``: ``wal`` (a columnar run of committed WAL
records), ``hb`` (the leader's head LSN and generation, once a second)
and ``resync`` (the stream outran the follower; subscribe again).

This module owns framing and routing only.  How a scalar read is
admitted, batched, cached and accounted is
:class:`~repro.serve.server.IndexServer`'s read core
(``admit``/``claim_slot``/``submit``/``publish``), the same one its
in-process coroutines run — so backpressure is inherited: once
``max_inflight`` slots are out, this connection's read loop — and
therefore the peer's TCP window — stalls.  One process serves; to scale
reads across processes or hosts, run :func:`repro.replica.follow`
replicas against this same address.
"""

from __future__ import annotations

import asyncio
from functools import partial

from ..serve.server import IndexServer
from .ops import (
    READ_OPS,
    REPL_OPS,
    WRITE_OPS,
    error_response,
    execute_read,
    scalar_read,
)
from .protocol import DEFAULT_MAX_FRAME, FrameDecoder, ProtocolError, encode_frame

__all__ = ["NetServer"]


class _CloseConnection(Exception):
    """Internal: stop this connection's read loop after a fatal frame."""


class NetServer:
    """TCP serving: framed protocol in, micro-batched engine out."""

    def __init__(
        self,
        server: IndexServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        own_server: bool = False,
    ) -> None:
        self.server = server
        self.stats = server.stats
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self._own_server = own_server
        #: the :class:`~repro.replica.leader.ReplicationService` answering
        #: ``repl_*`` ops (durable indexes only, else None)
        self.replication = None
        self._asyncio_server: asyncio.base_events.Server | None = None
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind; returns ``(host, port)``."""
        if self.server.durability is not None:
            from ..replica.leader import ReplicationService

            self.replication = ReplicationService(
                self.server.durability, self.stats, self.max_frame)
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        await self._asyncio_server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drop connections (and close an owned server)."""
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for writer in self._conn_writers:
            writer.close()
        self._conn_writers.clear()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self.replication is not None:
            await self.replication.close()
        if self._own_server:
            await self.server.close()

    async def __aenter__(self) -> "NetServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        cid, conn = self.stats.open_connection(str(peer))
        self._conn_writers.add(writer)
        self._conn_tasks.add(asyncio.current_task())
        decoder = FrameDecoder(self.max_frame)
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                conn.bytes_in += len(data)
                try:
                    msgs = decoder.feed(data)
                except ProtocolError as exc:
                    conn.protocol_errors += 1
                    self._send(conn, writer, {
                        "id": None, "ok": False,
                        "error": "ProtocolError", "message": str(exc),
                    })
                    break
                for msg in msgs:
                    await self._handle(conn, writer, msg)
                await writer.drain()
        except _CloseConnection:
            pass
        except asyncio.CancelledError:
            pass  # server shutdown: end the handler without complaint
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())
            self._conn_writers.discard(writer)
            if self.replication is not None:
                self.replication.release(writer)
            self.stats.close_connection(cid)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    def _send(self, conn, writer, payload: dict) -> None:
        """Frame + write one response; maintains the per-conn counters.

        A connection that died while its answer was in flight simply
        drops the answer — its slot was already released by
        ``publish``, so nothing leaks.
        """
        if writer.is_closing():
            return
        try:
            data = encode_frame(payload, self.max_frame)
        except ProtocolError as exc:
            # an answer too big for the frame limit (a huge range_keys
            # scan) fails its own request — the error frame is tiny —
            # instead of killing this connection's handler
            payload = error_response(payload.get("id"), exc)
            data = encode_frame(payload, self.max_frame)
        conn.responses += 1
        conn.bytes_out += len(data)
        if payload.get("ok") is False:
            conn.errors += 1
        writer.write(data)

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------
    async def _handle(self, conn, writer, msg) -> None:
        if not isinstance(msg, dict) or not isinstance(msg.get("op"), str):
            conn.protocol_errors += 1
            self._send(conn, writer, {
                "id": None, "ok": False, "error": "ProtocolError",
                "message": "request must be a dict with a string 'op'",
            })
            raise _CloseConnection
        conn.requests += 1
        op = msg["op"]
        rid = msg.get("id")
        server = self.server
        if op in READ_OPS or op == "stats":
            scalar = scalar_read(msg)
            if scalar is None:
                # vector reads, range_keys, ping, stats: one synchronous
                # answer (no suspension point between resolve and reply)
                self._send(conn, writer,
                           server.answer_inline(self._execute, msg))
                return
            answer = server.admit(*scalar)
            if answer is not None:
                self._send(conn, writer, {"id": rid, "ok": True, "r": answer})
                return
            wait = server.claim_slot()
            if wait is not None:
                await wait  # saturated: stall this connection's reads
            try:
                future, ticket = server.submit(*scalar)
            except Exception as exc:
                self._send(conn, writer, error_response(rid, exc))
                return
            # the socket-read boundary stays the batch boundary: no await
            # here, the answer goes out when the batch resolves
            future.add_done_callback(
                partial(self._publish, conn, writer, rid, ticket))
        elif op in WRITE_OPS:
            conn.writes += 1
            try:
                key = msg["key"]
                if op == "insert":
                    shard = await server.insert(key)
                else:
                    shard = await server.delete(key)
            except Exception as exc:
                self._send(conn, writer, error_response(rid, exc))
                return
            self._send(conn, writer, {"id": rid, "ok": True, "r": shard})
        elif op == "barrier":
            await server.drain()
            self._send(conn, writer, {"id": rid, "ok": True, "r": True})
        elif op in REPL_OPS and self.replication is not None:
            answer = await self.replication.handle(conn, writer, msg)
            if answer is not None:
                self._send(conn, writer, answer)
        elif op in REPL_OPS:
            self._send(conn, writer, error_response(rid, ValueError(
                "replication needs a durable index: build it with "
                "durable_dir=...")))
        else:
            self._send(conn, writer, error_response(
                rid, ValueError(f"unknown op {op!r}")))

    def _execute(self, executor, msg: dict) -> dict:
        if msg["op"] == "stats":
            snap = dict(self.stats.snapshot())
            snap["net"] = self.stats.net_snapshot()
            return {"id": msg.get("id"), "ok": True, "r": snap}
        return execute_read(executor, msg)

    def _publish(self, conn, writer, rid, ticket, future) -> None:
        """Done-callback of a batched read: publish, then reply."""
        try:
            answer = self.server.publish(ticket, future)
        except asyncio.CancelledError:
            return
        except Exception as exc:
            self._send(conn, writer, error_response(rid, exc))
            return
        self._send(conn, writer, {"id": rid, "ok": True, "r": answer})
