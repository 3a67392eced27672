"""Thin async client for :class:`~repro.net.server.NetServer`.

One TCP connection, one background reader task, and a request-id →
future map: every call writes its frame immediately and awaits its own
future, so N concurrent callers pipeline N requests onto the socket
without waiting for each other's answers.  Per-request timeouts come
from :func:`asyncio.wait_for`; a dead connection fails every pending
future with :class:`ConnectionError`, and **idempotent reads** (lookup,
range, range_keys, ping, stats) transparently reconnect and retry while
writes surface the error — the caller must decide whether an insert
whose ack was lost actually landed.

Duplicate or unknown response ids are ignored — a safety check: a
request that timed out (its future is gone) or was retried after a
reconnect may still be answered late; reads are idempotent, so the
first response wins and the echo is dropped.
"""

from __future__ import annotations

import asyncio

from .protocol import DEFAULT_MAX_FRAME, FrameDecoder, ProtocolError, encode_frame

__all__ = ["Client"]

#: wire error names mapped back onto the exception the in-process API
#: would have raised; anything else surfaces as RuntimeError
_ERROR_TYPES = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "OverflowError": OverflowError,
    "ProtocolError": ProtocolError,
}


class Client:
    """Async client: pipelining, per-request timeouts, read reconnect."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 5.0,
        reconnect: bool = True,
        retries: int = 2,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnect = reconnect
        self.retries = retries
        self.max_frame = max_frame
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "Client":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        await self._teardown_transport()
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "Client":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _teardown_transport(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _reconnect(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        await self._teardown_transport()
        await self.connect()

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        decoder = FrameDecoder(self.max_frame)
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    raise ConnectionResetError("server closed the connection")
                for msg in decoder.feed(data):
                    self._on_response(msg)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(exc)

    def _on_response(self, msg) -> None:
        if not isinstance(msg, dict):
            return
        fut = self._pending.pop(msg.get("id"), None)
        if fut is None or fut.done():
            return  # a late answer to a timed-out or retried request
        if msg.get("ok"):
            fut.set_result(msg.get("r"))
        else:
            exc_type = _ERROR_TYPES.get(msg.get("error"), RuntimeError)
            fut.set_exception(exc_type(msg.get("message", "server error")))

    def _fail_pending(self, exc: BaseException) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(
                    ConnectionError(f"connection lost: {exc}"))

    # ------------------------------------------------------------------
    # request core
    # ------------------------------------------------------------------
    async def _request(self, msg: dict, *, idempotent: bool):
        if self._closed and self._writer is None:
            raise RuntimeError("client is closed (call connect())")
        attempts = 1 + (self.retries if (idempotent and self.reconnect) else 0)
        last: BaseException | None = None
        for attempt in range(attempts):
            if self._writer is None or self._writer.is_closing():
                if not self.reconnect:
                    raise ConnectionError("connection is closed")
                await self._reconnect()
            rid = self._next_id
            self._next_id += 1
            fut = asyncio.get_running_loop().create_future()
            self._pending[rid] = fut
            try:
                self._writer.write(
                    encode_frame(dict(msg, id=rid), self.max_frame))
                await self._writer.drain()
                return await asyncio.wait_for(fut, self.timeout)
            except (ConnectionError, OSError) as exc:
                self._pending.pop(rid, None)
                last = exc
                if not (idempotent and self.reconnect):
                    raise
            except asyncio.TimeoutError:
                self._pending.pop(rid, None)
                raise
        raise last  # retries exhausted

    # ------------------------------------------------------------------
    # public ops (scalars answer scalars, vectors answer ndarrays)
    # ------------------------------------------------------------------
    async def ping(self) -> bool:
        return await self._request({"op": "ping"}, idempotent=True) == "pong"

    async def lookup(self, q):
        """Rank of ``q`` (scalar → int, list/ndarray → ndarray)."""
        return await self._request({"op": "lookup", "q": q}, idempotent=True)

    async def range(self, lo, hi):
        """Count of keys in ``[lo, hi)`` (scalar or vector)."""
        return await self._request(
            {"op": "range", "lo": lo, "hi": hi}, idempotent=True)

    async def range_keys(self, lo, hi):
        """The keys in ``[lo, hi)`` as an ndarray (scalar bounds only)."""
        return await self._request(
            {"op": "range_keys", "lo": lo, "hi": hi}, idempotent=True)

    async def insert(self, key) -> int:
        """Insert ``key``; returns the owning shard (never auto-retried)."""
        return await self._request(
            {"op": "insert", "key": key}, idempotent=False)

    async def delete(self, key) -> int:
        """Delete ``key``; raises KeyError if absent (never auto-retried)."""
        return await self._request(
            {"op": "delete", "key": key}, idempotent=False)

    async def stats(self) -> dict:
        """The server's :meth:`ServerStats.snapshot` plus net counters."""
        return await self._request({"op": "stats"}, idempotent=True)

    async def barrier(self) -> bool:
        """Drain the server's batcher: earlier reads answer, then return."""
        return bool(await self._request({"op": "barrier"}, idempotent=True))
