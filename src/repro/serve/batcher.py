"""Micro-batching: amortise per-request overhead across concurrent clients.

The engine's vectorised pipeline (76x the scalar loop, see README) only
pays off when queries arrive in batches — but serving traffic arrives as
individual concurrent requests.  :class:`MicroBatcher` bridges the two:
it parks each request in a queue and flushes the queue through
:class:`~repro.engine.executor.BatchExecutor` either when ``max_batch``
requests have accumulated (size trigger) or ``max_wait_us`` after the
oldest request arrived (time trigger), whichever comes first.  A lone
request therefore never waits longer than the batch window, and a burst
of N concurrent clients pays roughly one dispatch for N answers.

The time/size policy itself lives in :class:`BatchQueue`, a synchronous
core with an explicit clock so property tests can drive it with fake
time (every request flushed exactly once, no batch over ``max_batch``,
lone requests flushed within the window); :class:`MicroBatcher` wraps it
with asyncio futures and ``loop.call_at`` timers.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.records import coerce_query_array
from ..engine.executor import BatchExecutor

#: Request kinds the batcher understands.
KINDS = ("lookup", "range")


def check_query(value) -> None:
    """Reject a malformed query value at submit time.

    A batch serves many unrelated clients, so one bad value must fail
    only its own request — validating before the value enters the
    queue is what keeps a ``nan`` or a string from poisoning a whole
    dispatch.
    """
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"query must be finite, got {value!r}")
    elif not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"query must be a real number, got {type(value).__name__}"
        )


class Request:
    """One queued client request (``range`` carries ``hi``; lookups don't).

    A plain ``__slots__`` record, not a dataclass: one of these is
    allocated per served request on the hot path.
    """

    __slots__ = ("kind", "lo", "hi", "future", "submitted_at")

    def __init__(self, kind: str, lo, hi=None, future=None,
                 submitted_at: float = 0.0) -> None:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.future = future
        self.submitted_at = submitted_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Request({self.kind!r}, {self.lo!r}, {self.hi!r})"


@dataclass
class BatchQueue:
    """Time/size-bounded request accumulator (the batcher sans asyncio).

    ``submit`` returns a full batch the moment the size bound is hit;
    ``poll`` returns the pending batch once ``now`` passes the deadline
    set by the oldest pending request; ``drain`` flushes unconditionally.
    Exactly one of those returns any given request, exactly once.
    """

    max_batch: int = 256
    max_wait_us: float = 200.0
    _pending: list = field(default_factory=list)
    _deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def deadline(self) -> float | None:
        """When the pending batch is due (None while the queue is empty)."""
        return self._deadline

    def submit(self, request, now: float) -> list | None:
        """Queue one request; returns the batch if it is now full."""
        if not self._pending:
            self._deadline = now + self.max_wait_us * 1e-6
        self._pending.append(request)
        if len(self._pending) >= self.max_batch:
            return self.drain()
        return None

    def poll(self, now: float) -> list | None:
        """Returns the pending batch once its deadline has passed."""
        if self._pending and self._deadline is not None and now >= self._deadline:
            return self.drain()
        return None

    def drain(self) -> list | None:
        """Flush whatever is pending (None when empty)."""
        if not self._pending:
            return None
        batch, self._pending = self._pending, []
        self._deadline = None
        return batch


class MicroBatcher:
    """Collects concurrent async requests into executor-sized batches.

    Dispatch runs inline on the event loop: the numpy pipeline is a few
    microseconds-per-query affair and releases the GIL inside its heavy
    kernels, so handing it to a thread would cost more than it saves.
    Answers are shard-global positions for ``lookup`` and ``(first,
    last)`` global position pairs for ``range``.

    Flushing is *idle-adaptive*: the ``max_wait_us`` deadline timer is
    only a backstop, because asyncio timers inherit the selector's ~1ms
    granularity — three orders of magnitude above a batched lookup.  An
    extra ``call_soon`` probe watches the queue across loop iterations
    and flushes as soon as it stops growing: every client that was
    going to contribute to this batch has submitted (they were all
    woken in the same iteration), so waiting any longer only adds
    latency.  Under concurrent load this yields full batches with
    microsecond queueing delay; a lone request is flushed after ~two
    loop iterations, well inside any sane ``max_wait_us``.
    """

    def __init__(
        self,
        executor: BatchExecutor,
        max_batch: int = 256,
        max_wait_us: float = 200.0,
        stats=None,
    ) -> None:
        self.executor = executor
        self.queue = BatchQueue(max_batch=max_batch, max_wait_us=max_wait_us)
        self.stats = stats
        self._timer: asyncio.TimerHandle | None = None
        self._probe: asyncio.Handle | None = None
        self._probe_len = 0

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def lookup(self, q) -> int:
        """Global lower-bound position of ``q`` (batched)."""
        return await self.submit_lookup(q)

    async def range(self, lo, hi) -> tuple[int, int]:
        """``[first, last)`` global positions of ``lo <= key < hi`` (batched)."""
        return await self.submit_range(lo, hi)

    def submit_lookup(self, q) -> asyncio.Future:
        """Queue a lookup, returning its future *synchronously*.

        :meth:`IndexServer.submit <repro.serve.server.IndexServer.submit>`
        calls this for in-process coroutines and, through the network
        front end's socket-read loop, for wire frames: every request
        decoded from one TCP read joins the current batch without an
        intervening task switch, so one read syscall's worth of
        pipelined requests becomes one executor dispatch.
        """
        check_query(q)
        return self._submit(Request("lookup", q))

    def submit_range(self, lo, hi) -> asyncio.Future:
        """Queue a range count, returning its future synchronously."""
        check_query(lo)
        check_query(hi)
        return self._submit(Request("range", lo, hi))

    def _submit(self, request: Request) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        now = loop.time()
        request.future = loop.create_future()
        request.submitted_at = now
        batch = self.queue.submit(request, now)
        if batch is not None:  # size trigger: the window timer is moot
            self._cancel_triggers()
            self._dispatch(batch)
        else:
            if self._timer is None:
                self._timer = loop.call_at(self.queue.deadline, self._on_timer)
            if self._probe is None:
                self._probe_len = len(self.queue)
                self._probe = loop.call_soon(self._idle_probe)
        return request.future

    async def drain(self) -> None:
        """Flush pending requests now (write barriers, shutdown)."""
        self._cancel_triggers()
        batch = self.queue.drain()
        if batch is not None:
            self._dispatch(batch)

    def _on_timer(self) -> None:
        self._timer = None
        batch = self.queue.poll(asyncio.get_running_loop().time())
        if batch is not None:
            self._cancel_triggers()
            self._dispatch(batch)

    def _idle_probe(self) -> None:
        """Flush once the queue stops growing between loop iterations."""
        self._probe = None
        pending = len(self.queue)
        if pending == 0:
            return
        if pending == self._probe_len:  # nobody new woke up: loop is idle
            self._cancel_triggers()
            batch = self.queue.drain()
            if batch is not None:
                self._dispatch(batch)
        else:  # still accumulating: look again next iteration
            self._probe_len = pending
            self._probe = asyncio.get_running_loop().call_soon(self._idle_probe)

    def _cancel_triggers(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._probe is not None:
            self._probe.cancel()
            self._probe = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _query_array(self, values: list) -> tuple[np.ndarray, np.ndarray | None]:
        """Key-comparable query array + above-domain mask for one batch.

        A batch mixes queries from unrelated clients, so numpy's dtype
        inference over the mixed value list can silently produce
        float64 (e.g. a ``>2**63`` key next to a negative probe),
        corrupting large keys.
        :func:`~repro.core.records.coerce_query_array` clamps the
        values into the key domain exactly and masks the above-domain
        lanes, whose true answer is ``len(index)``.
        """
        return coerce_query_array(values, self.executor.index.key_dtype)

    def _dispatch(self, batch: list) -> None:
        """Run one flushed batch through the executor, resolve futures."""
        if self.stats is not None:
            self.stats.record_batch(len(batch))
        lookups = [r for r in batch if r.kind == "lookup"]
        ranges = [r for r in batch if r.kind == "range"]
        n = len(self.executor.index)
        try:
            if lookups:
                queries, oob = self._query_array([r.lo for r in lookups])
                positions = self.executor.lookup_batch(queries)
                if oob is not None:
                    positions[oob] = n  # above every representable key
                now = asyncio.get_running_loop().time()
                for r, pos in zip(lookups, positions):
                    self._resolve(r, int(pos), now)
            if ranges:
                lows, oob_lo = self._query_array([r.lo for r in ranges])
                highs, oob_hi = self._query_array([r.hi for r in ranges])
                first, last = self.executor.range_batch(lows, highs)
                if oob_lo is not None:
                    first[oob_lo] = n
                if oob_hi is not None:
                    last[oob_hi] = n
                last = np.maximum(first, last)
                now = asyncio.get_running_loop().time()
                for r, a, b in zip(ranges, first, last):
                    self._resolve(r, (int(a), int(b)), now)
        except Exception as exc:  # fan the failure out, don't hang clients
            for r in batch:
                if r.future is not None and not r.future.done():
                    r.future.set_exception(exc)

    def _resolve(self, request: Request, result, now: float) -> None:
        if self.stats is not None:
            self.stats.record_latency(now - request.submitted_at)
        if request.future is not None and not request.future.done():
            request.future.set_result(result)
