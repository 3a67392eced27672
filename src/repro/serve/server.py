"""The asyncio serving front end over the sharded batch engine.

:class:`IndexServer` is what a network handler would call: concurrent
``lookup``/``range`` coroutines are micro-batched through the vectorised
:class:`~repro.engine.executor.BatchExecutor`
(:mod:`repro.serve.batcher`), answered from a write-coherent LRU
:class:`~repro.serve.cache.ResultCache` when possible, and accounted in
:class:`~repro.serve.stats.ServerStats`.

Coherence model (single event loop):

* **Writes are read barriers.**  ``insert``/``delete`` first drain the
  pending micro-batch, so every request admitted before a write is
  answered against the pre-write index; requests submitted after it see
  the post-write index.
* **Invalidation is synchronous.**  The server registers a write
  listener on the :class:`~repro.engine.sharded.ShardedIndex`; by the
  time a write call returns, stale cache entries are gone (point
  entries above the written key, cached ranges overlapping the mutated
  shard's span — see :mod:`repro.serve.cache`).
* **Stale fills cannot sneak in.**  A write bumps an epoch counter;
  a read only caches its answer if no write landed while it was in
  flight, closing the resolve-then-cache race.

Backpressure: at most ``max_inflight`` requests may be waiting on the
executor; beyond that, new requests park on a FIFO of waiter events
(counted in ``stats.backpressure_waits``) instead of growing the batch
queue without bound.  Claiming a free slot is a plain counter
decrement — the await machinery only engages once the server
saturates.

One read path: how a scalar read is admitted (lazy timers, cache
probe, slot), answered (micro-batcher) and published (slot release,
epoch-guarded cache fill, stats) is decided by four synchronous
methods — :meth:`IndexServer.admit`, :meth:`~IndexServer.claim_slot`,
:meth:`~IndexServer.submit`, :meth:`~IndexServer.publish` — and by
nothing else.  The in-process coroutines await the batcher future and
publish inline; the TCP front end (:mod:`repro.net.server`) attaches
``publish`` as the future's done-callback.  Neither path allocates a
task or a second future per request.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Awaitable

import numpy as np

from ..core.corrected_index import CorrectedIndex
from ..engine.executor import BatchExecutor
from ..engine.sharded import ShardedIndex, WriteEvent
from .batcher import MicroBatcher
from .cache import ResultCache, scalar
from .stats import ServerStats


class IndexServer:
    """Async point/range serving over a (sharded) learned index."""

    def __init__(
        self,
        index: ShardedIndex | CorrectedIndex,
        max_batch: int = 256,
        max_wait_us: float = 200.0,
        workers: int = 1,
        point_cache: int = 65536,
        range_cache: int = 4096,
        max_inflight: int = 8192,
        stats: ServerStats | None = None,
        retune_interval: float | None = None,
        durability=None,
        checkpoint_interval: float | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if retune_interval is not None and retune_interval <= 0:
            raise ValueError("retune_interval must be positive seconds")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive seconds")
        if checkpoint_interval is not None and durability is None:
            raise ValueError(
                "checkpoint_interval needs a durability manager to drive"
            )
        self.executor = BatchExecutor(index, workers=workers)
        self.index = self.executor.index
        self.stats = stats if stats is not None else ServerStats()
        self.cache = ResultCache(point_cache, range_cache)
        self.batcher = MicroBatcher(
            self.executor, max_batch=max_batch, max_wait_us=max_wait_us,
            stats=self.stats,
        )
        self.max_inflight = max_inflight
        #: seconds between background §3.9 maintenance passes (None: the
        #: caller retunes explicitly).  The timer task starts lazily on
        #: the first served request — construction happens outside any
        #: event loop — and is cancelled and awaited by :meth:`close`.
        self.retune_interval = retune_interval
        self._retune_task: asyncio.Task | None = None
        #: the exception that stopped the background retune timer, if any
        self.retune_error: Exception | None = None
        #: the :class:`~repro.engine.durability.DurabilityManager` whose
        #: index this server fronts (None: writes are memory-only).  The
        #: manager must already be attached to ``index``; the server
        #: adds acknowledgment (awaited writes are durable writes) and
        #: scheduling (``checkpoint_interval``) on top.
        self.durability = durability
        #: seconds between background incremental checkpoints (None: the
        #: caller checkpoints explicitly); same lazy-start/cancel
        #: lifecycle as ``retune_interval``.
        self.checkpoint_interval = checkpoint_interval
        self._checkpoint_task: asyncio.Task | None = None
        #: the exception that stopped the checkpoint timer, if any
        self.checkpoint_error: Exception | None = None
        # group commit: while one fsync runs off-loop, every writer
        # that wants an acknowledgment parks a future here
        self._commit_running = False
        self._commit_waiters: list[asyncio.Future] = []
        self._write_epoch = 0
        # backpressure slots: a plain counter (sync fast path — no
        # coroutine allocation per request) plus a FIFO of waiter
        # events, only touched once the server saturates
        self._slots = max_inflight
        self._slot_waiters: deque = deque()
        self.index.add_write_listener(self._on_write)
        self._closed = False

    # ------------------------------------------------------------------
    # the read core: admit -> claim_slot -> submit -> publish
    # ------------------------------------------------------------------
    def admit(self, kind: str, lo, hi=None):
        """Admit one scalar read; returns its cached answer or ``None``.

        ``kind`` is ``"lookup"`` (rank of ``lo``), ``"range"``
        (cardinality of ``lo <= key < hi``) or ``"positions"`` (the raw
        ``(first, last)`` pair — never cached).  Starts the lazy
        background timers; a hit is accounted and final, a miss goes on
        to :meth:`claim_slot` and :meth:`submit`.
        """
        self._maybe_start_background_timers()
        try:
            if kind == "lookup":
                cached = self.cache.get_point(lo)
            elif kind == "range":
                cached = self.cache.get_range(lo, hi)
            else:
                return None
        except TypeError:  # unhashable garbage: submit() rejects it
            return None
        if cached is not None:
            self.stats.record_cache_hit()
        return cached

    def claim_slot(self) -> Awaitable[None] | None:
        """Claim a ``max_inflight`` slot for an admitted miss.

        Returns ``None`` when a slot was free (the uncontended path: a
        counter decrement, nothing allocated), else an awaitable the
        caller must await before :meth:`submit` — which is what stalls
        a coroutine client, or a TCP connection's read loop and with it
        the peer's send window, once the server saturates.
        """
        if self._slots > 0:
            self._slots -= 1
            return None
        return self._take_slot()

    def submit(self, kind: str, lo, hi=None) -> tuple[asyncio.Future, tuple]:
        """Queue a slot-holding read on the micro-batcher.

        Returns the batcher future and the ticket :meth:`publish` needs
        (the request plus the write epoch it was submitted under).  A
        value the batcher rejects gives the slot back and raises, so
        one bad request fails only itself.
        """
        try:
            if kind == "lookup":
                future = self.batcher.submit_lookup(lo)
            else:
                future = self.batcher.submit_range(lo, hi)
        except BaseException:
            self._release_slot()
            raise
        self.stats.request_started()
        return future, (kind, lo, hi, self._write_epoch)

    def publish(self, ticket: tuple, future: asyncio.Future):
        """Release the slot of a finished read and publish its answer.

        ``future`` is the done batcher future of :meth:`submit`.  The
        answer is cached only if no write landed since the submit (the
        epoch guard); a failed or cancelled batch re-raises here, after
        the slot is back.
        """
        self._release_slot()
        self.stats.request_finished()
        result = future.result()
        kind, lo, hi, epoch = ticket
        if kind == "lookup":
            if epoch == self._write_epoch:  # no write raced the dispatch
                self.cache.put_point(lo, result)
            return result
        if kind == "positions":
            return result
        count = result[1] - result[0]
        if epoch == self._write_epoch:
            self.cache.put_range(lo, hi, count)
        return count

    def answer_inline(self, fn, *args):
        """Answer ``fn(executor, *args)`` synchronously on the loop.

        For reads that have nothing to gain from the micro-batcher — a
        vector of queries is already a batch, a scan's answer is
        unbounded — with no suspension point between resolve and reply.
        """
        self._maybe_start_background_timers()
        self.stats.request_started()
        try:
            return fn(self.executor, *args)
        finally:
            self.stats.request_finished()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    async def _read(self, kind: str, lo, hi=None):
        answer = self.admit(kind, lo, hi)
        if answer is not None:
            return answer
        wait = self.claim_slot()
        if wait is not None:
            await wait
        future, ticket = self.submit(kind, lo, hi)
        try:
            await future
        finally:
            answer = self.publish(ticket, future)
        return answer

    def lookup(self, q) -> Awaitable[int]:
        """Global lower-bound position of ``q`` (cache, then micro-batch)."""
        return self._read("lookup", q)

    def range(self, lo, hi) -> Awaitable[int]:
        """Cardinality of ``lo <= key < hi`` (cache, then micro-batch).

        Range answers are served as cardinalities — value-domain, hence
        immune to the global rank shifts that writes to *other* shards
        cause — which is what makes shard-aware cache invalidation
        exact.  Use :meth:`range_positions` for the raw bounds and
        :meth:`range_keys` for the materialised keys.
        """
        return self._read("range", lo, hi)

    def range_positions(self, lo, hi) -> Awaitable[tuple[int, int]]:
        """``[first, last)`` global positions of a range (uncached)."""
        return self._read("positions", lo, hi)

    async def range_keys(self, lo, hi):
        """Materialised keys in ``lo <= key < hi`` (the served scan).

        Closes the serving parity gap with the engine's
        ``BatchExecutor.scan_batch``: :meth:`range` answers only the
        *cardinality*; this returns the key slice itself.  Key arrays
        are unbounded-size answers, so they **bypass the result cache**
        entirely — nothing to invalidate, nothing stale to serve.  The
        positions still resolve through the micro-batcher; a write
        landing between the batched position resolve and the slice
        would make the slice stale, so the result is only used when no
        write raced it (the same epoch guard the cache fill uses) and
        the rare raced request retries, falling back to a synchronous
        in-loop scan under sustained write pressure.
        """
        for _ in range(4):
            epoch = self._write_epoch
            first, last = await self._read("positions", lo, hi)
            if epoch == self._write_epoch:
                # no await between the check and the slice: the keys
                # cannot move under a single event loop
                return self.index.keys[first:last]
        # writes keep racing the batched path: answer synchronously
        # (exact — no suspension point between resolve and slice)
        first_arr, last_arr = self.executor.range_batch([lo], [hi])
        return self.index.keys[int(first_arr[0]):int(last_arr[0])]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    async def insert(self, key) -> int:
        """Insert ``key``; pending reads flush first (write barrier).

        With a durability manager attached, the await also covers the
        WAL acknowledgment: under ``sync="group"`` concurrent writers
        ride one leader fsync (see :meth:`_ensure_durable`), so by the
        time this returns the write survives a crash.
        """
        self._maybe_start_background_timers()
        await self.batcher.drain()
        shard = self.index.insert(key)
        await self._ensure_durable()
        return shard

    async def delete(self, key) -> int:
        """Delete one occurrence of ``key``; pending reads flush first.

        Durable on return under the same contract as :meth:`insert`.
        """
        self._maybe_start_background_timers()
        await self.batcher.drain()
        shard = self.index.delete(key)
        await self._ensure_durable()
        return shard

    async def refresh(self) -> None:
        """Fold buffered updates into every shard (no cache impact)."""
        await self.batcher.drain()
        self.index.refresh()

    async def retune(self, tuner=None) -> list[dict]:
        """Run the §3.9 per-shard auto-tuner as an online maintenance pass.

        Drains pending reads first (same barrier as a write) so no
        batch straddles the shard rebuilds, then calls
        :meth:`ShardedIndex.retune
        <repro.engine.sharded.ShardedIndex.retune>` — which sees the
        read/write mix this server's executor and write path have been
        recording per shard.  Retuning preserves the logical key
        sequence, so cached answers stay valid and no invalidation
        happens.  Returns the per-shard action list.
        """
        await self.batcher.drain()
        actions = self.index.retune(tuner)
        self.stats.retunes += 1
        return actions

    async def checkpoint(self) -> dict:
        """Run one incremental checkpoint without stalling the loop.

        The per-shard flush (the slow, fsync-heavy part) runs in a
        worker thread — safe because every engine mutation it performs
        happens under the engine write lock the in-loop write path also
        takes, and reads never see structure move (maintenance is
        deferred for the duration).  The structural catch-up
        (:meth:`ShardedIndex.resume_maintenance`) then runs *on* the
        loop behind a drain, ordered with the lock-free readers like
        any other write.  Returns the published manifest.
        """
        mgr = self.durability
        if mgr is None:
            raise ValueError("this server has no durability manager")
        loop = asyncio.get_running_loop()
        # a failing pass resumes maintenance itself before raising, so
        # no structural work is left pending on the error path
        manifest = await loop.run_in_executor(
            None, lambda: mgr.checkpoint(resume=False)
        )
        await self.batcher.drain()
        self.index.resume_maintenance()
        self.stats.checkpoints += 1
        return manifest

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    async def _ensure_durable(self) -> None:
        """Await the WAL acknowledgment for the write just applied.

        ``sync="always"`` already fsynced inside the write call and
        ``sync="async"`` promises nothing, so only ``"group"`` waits:
        the first writer to arrive becomes the *leader* and starts one
        ``commit()`` in a worker thread; writers landing meanwhile park
        beside it — records appended before the fsync ran are
        acknowledged by it, later ones by the next.  This is the group
        in group commit: N concurrent writers, one fsync.

        A pass of a loaded event loop runs every ready reader before it
        gets to anything else, so the acknowledgment is kept to two of
        them (the thread's callback, the writer's wake-up): no task
        around the commit and no future between it and its waiters.
        """
        mgr = self.durability
        if mgr is None or mgr.sync != "group":
            return
        lsn = mgr.last_lsn
        loop = asyncio.get_running_loop()
        while mgr.durable_lsn < lsn:
            acked = loop.create_future()
            self._commit_waiters.append(acked)
            if not self._commit_running:
                self._commit_running = True
                loop.run_in_executor(None, self._commit_off_loop, loop)
            await acked

    def _commit_off_loop(self, loop) -> None:
        """Worker thread: one group fsync, reported straight to the loop."""
        error = None
        try:
            self.durability.commit()
        except Exception as exc:
            error = exc
        loop.call_soon_threadsafe(self._commit_done, error)

    def _commit_done(self, error: Exception | None) -> None:
        self._commit_running = False
        waiters, self._commit_waiters = self._commit_waiters, []
        if error is None:
            self.stats.group_commits += 1
        for acked in waiters:
            if acked.done():  # its writer was cancelled meanwhile
                continue
            if error is None:
                acked.set_result(None)
            else:
                acked.set_exception(error)

    # ------------------------------------------------------------------
    # background maintenance
    # ------------------------------------------------------------------
    def _maybe_start_background_timers(self) -> None:
        """Start the maintenance timers once a loop exists (lazy, idempotent).

        Construction happens outside any event loop, so the retune and
        checkpoint timers both start on the first served request and
        are cancelled and awaited by :meth:`close`.
        """
        if self._closed:
            return
        if self.retune_interval is not None and self._retune_task is None:
            self._retune_task = asyncio.get_running_loop().create_task(
                self._periodic("retune", self.retune_interval)
            )
        if (
            self.checkpoint_interval is not None
            and self._checkpoint_task is None
        ):
            # an index drained to empty skips the pass — the WAL alone
            # keeps it recoverable
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._periodic("checkpoint", self.checkpoint_interval,
                               skip=lambda: len(self.index) == 0)
            )

    async def _periodic(self, name: str, interval: float, skip=None) -> None:
        """One scheduled maintenance timer: sleep, ``self.<name>()``, repeat.

        Each pass runs exactly what the explicit :meth:`retune` /
        :meth:`checkpoint` call runs (drain first, so batches never
        straddle the pass) and is counted in
        ``stats.background_<name>s``.  One error policy: a failing pass
        is recorded in ``<name>_error``, bumps
        ``stats.background_<name>_errors`` and stops *this* timer —
        maintenance must never take the serving path down with it.
        Cancelled — after a final drain — by :meth:`close`.
        """
        stats = self.stats
        while not self._closed:
            await asyncio.sleep(interval)
            if self._closed:
                return
            if skip is not None and skip():
                continue
            try:
                await getattr(self, name)()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                setattr(self, f"{name}_error", exc)
                errors = f"background_{name}_errors"
                setattr(stats, errors, getattr(stats, errors) + 1)
                return
            passes = f"background_{name}s"
            setattr(stats, passes, getattr(stats, passes) + 1)

    def _on_write(self, event: WriteEvent) -> None:
        if event.kind in ("refresh", "retune"):
            return  # logical key sequence unchanged: cache stays valid
        self._write_epoch += 1
        dropped_points, dropped_ranges = self.cache.on_write(event)
        self.stats.record_write(dropped_points, dropped_ranges)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _take_slot(self) -> None:
        """Claim a dispatch slot, queueing once ``max_inflight`` is hit."""
        while self._slots <= 0:
            self.stats.backpressure_waits += 1
            waiter = asyncio.Event()
            self._slot_waiters.append(waiter)
            try:
                await waiter.wait()
            except asyncio.CancelledError:
                # don't strand the queue: a wakeup consumed by a
                # cancelled waiter must pass to the next one, and an
                # unconsumed waiter must not absorb a future wakeup
                if waiter.is_set():
                    self._wake_next_waiter()
                else:
                    self._slot_waiters.remove(waiter)
                raise
        self._slots -= 1

    def _wake_next_waiter(self) -> None:
        if self._slot_waiters and self._slots > 0:
            self._slot_waiters.popleft().set()

    def _release_slot(self) -> None:
        self._slots += 1
        if self._slot_waiters:  # only a saturated server has any
            self._wake_next_waiter()

    async def drain(self) -> None:
        """Flush the micro-batch queue without writing anything."""
        self._maybe_start_background_timers()
        await self.batcher.drain()

    async def close(self) -> None:
        """Flush pending requests, detach from the index, stop the pool.

        The background retune timer (``retune_interval``) is cancelled
        and awaited first, so no maintenance pass can start after the
        server is closed.
        """
        if self._closed:
            return
        self._closed = True
        timers = [self._retune_task, self._checkpoint_task]
        self._retune_task = self._checkpoint_task = None
        for task in timers:
            if task is not None:
                task.cancel()
        live = [t for t in timers if t is not None]
        if live:
            # gather with return_exceptions: a timer that already died
            # (its failure is recorded in retune_error /
            # checkpoint_error) must not abort the shutdown below
            await asyncio.gather(*live, return_exceptions=True)
        if self._commit_running:
            # let an in-flight group commit acknowledge its writers
            done = asyncio.get_running_loop().create_future()
            self._commit_waiters.append(done)
            await asyncio.gather(done, return_exceptions=True)
        await self.batcher.drain()
        if self.durability is not None:
            # final group fsync: every applied write is durable on close
            await asyncio.get_running_loop().run_in_executor(
                None, self.durability.commit
            )
        self.index.remove_write_listener(self._on_write)
        self.executor.close()

    async def __aenter__(self) -> "IndexServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def describe(self) -> str:
        """One-screen server + cache + index summary."""
        info = self.index.build_info()
        head = ", ".join(f"{k}={v}" for k, v in info.items())
        cache = ", ".join(f"{k}={v}" for k, v in self.cache.info().items())
        return f"index: {head}\ncache: {cache}\n{self.stats.describe()}"


# keep the canonical cache-key helper importable from the server module
__all__ = ["IndexServer", "scalar"]
