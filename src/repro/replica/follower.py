"""Follower half of replication: sync a generation, stream the tail.

:func:`follow` turns an empty (or previously-synced) directory into a
live read replica of a leader's durable index:

1. **Boot** — if the directory already holds a synced generation, it
   reboots through the engine's ordinary recovery read path
   (:func:`~repro.engine.durability.replay_directory`): segments load
   without refits, the local WAL tail replays into pending buffers.
   Otherwise (or when the local state is unusable) it **full-syncs**:
   pins the leader's published manifest, fetches every segment in
   chunks, checksum-verifies each one *before* publishing the local
   ``MANIFEST.json`` (the commit point — a crash mid-sync leaves a
   manifest-less directory that simply full-syncs again, never a torn
   generation).
2. **Stream** — subscribes from its local WAL head.  The leader either
   resumes (pushing the missing backlog, then live records) or demands
   a resync (its WAL GC'd the needed generations).  Every streamed
   record is appended to the replica's own WAL before it is applied,
   so the replica directory is always a bona fide durable directory:
   :func:`repro.open` on it *promotes* the replica to a standalone
   writable index.

Reads are served from the embedded :class:`repro.Index` facade and are
oracle-exact at the replica's applied-LSN watermark
(:attr:`ReplicaIndex.applied_lsn`); staleness is observable via
:meth:`ReplicaIndex.lag` — LSNs behind the leader's last heartbeat and
seconds spent behind it.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..api import Index
from ..core.serialize import atomic_write, atomic_write_text, fsync_dir
from ..engine.durability import (
    MANIFEST_NAME,
    DurabilityManager,
    apply_record,
    check_manifest,
    is_durable_dir,
    load_segment,
    replay_directory,
)
from ..engine.persist import IndexPersistError
from ..engine.wal import WalError, WalWriter, list_generations, read_wal
from ..net.client import Client
from ..net.protocol import DEFAULT_MAX_FRAME, ProtocolError, encode_frame

__all__ = [
    "REPLICA_STATE_NAME",
    "ReplicaError",
    "ReplicaIndex",
    "ReplicaLag",
    "follow",
    "is_replica_dir",
    "read_replica_state",
]

#: Replica-side state file (alongside the synced ``MANIFEST.json``).
REPLICA_STATE_NAME = "REPLICA.json"

#: ``format`` magic inside :data:`REPLICA_STATE_NAME`.
REPLICA_FORMAT_NAME = "repro-replica"


class ReplicaError(ValueError):
    """A replica could not sync, stream or read its local state."""


class _ResyncNeeded(Exception):
    """Internal: the stream cannot resume — re-ship the generation."""


@dataclass(frozen=True)
class ReplicaLag:
    """Observable staleness: LSNs behind the leader, seconds behind it.

    ``lsns`` is the distance between the leader's last advertised head
    and the replica's applied watermark; ``seconds`` is how long the
    replica has continuously been behind (0.0 when caught up).
    """

    lsns: int
    seconds: float


def is_replica_dir(path) -> bool:
    """Whether ``path`` holds (or held) a streaming replica's state."""
    return (Path(path) / REPLICA_STATE_NAME).is_file()


def read_replica_state(path) -> dict:
    """Read a replica directory's ``REPLICA.json`` (sanctioned reader).

    Raises :class:`ReplicaError` for missing, unreadable or
    wrong-format files.
    """
    state_path = Path(path) / REPLICA_STATE_NAME
    try:
        state = json.loads(state_path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReplicaError(f"{state_path} is unreadable: {exc}") from exc
    if not isinstance(state, dict) \
            or state.get("format") != REPLICA_FORMAT_NAME:
        raise ReplicaError(f"{state_path} is not a replica state file")
    return state


# ----------------------------------------------------------------------
# sync filesystem helpers (run in executors; never on the event loop)
# ----------------------------------------------------------------------
def _clear_directory(root: Path) -> None:
    """Drop every synced artifact, manifest FIRST.

    Unlinking ``MANIFEST.json`` before the segments/WAL means a crash
    anywhere inside a resync leaves a manifest-less directory — the
    next :func:`follow` simply full-syncs — instead of a manifest
    pointing at missing or half-written files (a torn generation).
    """
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        manifest.unlink()
        fsync_dir(root)
    shutil.rmtree(root / "wal", ignore_errors=True)
    shutil.rmtree(root / "segments", ignore_errors=True)


def _write_segment(root: Path, manifest: dict, slot: int, blob: bytes):
    """Durably write one fetched segment, then verify it.

    ``manifest`` has passed
    :func:`~repro.engine.durability.check_manifest`, so the segment
    name cannot leave ``root``.  Returns ``(shard backend, flushed LSN,
    length)`` from :func:`~repro.engine.durability.load_segment` —
    corruption in transit or on disk, or a segment that is not the one
    its slot names, is caught *before* the manifest publish makes it
    reachable.
    """
    (root / "segments").mkdir(exist_ok=True)
    atomic_write(
        root / manifest["segments"][slot], lambda fh: fh.write(blob))
    return load_segment(root, manifest, slot)


class _LeaderClient(Client):
    """A :class:`~repro.net.client.Client` that also takes leader pushes.

    Pushes (``"kind"``-tagged frames with no id: wal runs, heartbeats,
    resync) queue in :attr:`pushes` in arrival order; a lost or closed
    connection queues a ``__lost__`` sentinel so the stream consumer
    wakes up too.  It never reconnects by itself — ``ReplicaIndex._run``
    owns reconnect and resubscribe.
    """

    def __init__(self, host: str, port: int, *, timeout: float,
                 max_frame: int) -> None:
        super().__init__(host, port, timeout=timeout, reconnect=False,
                         max_frame=max_frame)
        self.pushes: asyncio.Queue = asyncio.Queue()

    def _on_response(self, msg) -> None:
        if isinstance(msg, dict) and "kind" in msg:
            self.pushes.put_nowait(msg)
        else:
            super()._on_response(msg)

    def _fail_pending(self, exc: BaseException) -> None:
        super()._fail_pending(exc)
        self.pushes.put_nowait({"kind": "__lost__", "message": str(exc)})

    async def request(self, msg: dict):
        """One request/response; a leader error frame raises ReplicaError."""
        try:
            return await self._request(msg, idempotent=False)
        except (OSError, asyncio.TimeoutError):
            raise  # connection loss or timeout: the caller reconnects
        except Exception as exc:
            raise ReplicaError(f"{type(exc).__name__}: {exc}") from exc

    def send(self, msg: dict) -> None:
        """Fire-and-forget (acks): write a frame, await no response."""
        if self._writer is not None and not self._writer.is_closing():
            self._writer.write(encode_frame(msg, self.max_frame))


class ReplicaIndex:
    """A live, continuously-catching-up read replica of a leader index.

    Construct with :func:`follow`.  Reads (:meth:`lookup`,
    :meth:`range`, :meth:`scan`, …) delegate to the embedded
    :class:`repro.Index` facade and answer exactly what the leader
    would have answered at :attr:`applied_lsn`; :meth:`lag` reports the
    staleness.  The replica's directory stays a valid durable
    directory at all times — close the replica and ``repro.open()`` it
    to promote a standalone writable index.
    """

    def __init__(self, host: str, port: int, directory, *,
                 sync: str = "async", reconnect: bool = True,
                 ack_interval: float = 0.25, timeout: float = 30.0,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.host = host
        self.port = int(port)
        self.directory = Path(directory)
        self.ack_interval = ack_interval
        self.timeout = timeout
        self.max_frame = max_frame
        self._sync_mode = sync
        self._reconnect = reconnect
        self._conn: _LeaderClient | None = None
        self._index: Index | None = None
        self._wal: WalWriter | None = None
        self._flushed: list[int] = []
        self._task: asyncio.Task | None = None
        self._closed = False
        #: LSN watermark: every record at or below it is applied here
        self.applied_lsn = 0
        #: the leader's last advertised head LSN (heartbeats/subscribe)
        self.leader_lsn = 0
        self.leader_generation = 0
        #: generation of the locally synced manifest
        self.generation = 0
        self._behind_since: float | None = None
        # lifecycle counters (the acceptance tests' evidence)
        self.bytes_synced = 0  # segment chunk bytes fetched
        self.bytes_streamed = 0  # live wal frame bytes received
        self.streamed_records = 0
        self.filtered = 0  # records already inside a synced segment
        self.apply_skipped = 0  # deletes of absent keys (fault detector)
        self.full_syncs = 0
        self.resyncs = 0
        self.subscriptions = 0
        self._last_ack = 0.0
        self._last_dump = 0.0

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    async def _bootstrap(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        await self._ensure_conn()
        hello = await self._conn.request({"op": "repl_hello"})
        booted = False
        if is_durable_dir(self.directory):
            try:
                await self._boot_existing(hello)
                booted = True
            except (IndexPersistError, WalError, ReplicaError):
                booted = False  # unusable local state: ship it fresh
        if not booted:
            await self._full_sync()
        self._task = asyncio.create_task(self._run())

    async def _boot_existing(self, hello: dict) -> None:
        """Reboot from the locally synced generation + local WAL tail."""
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(
            None, replay_directory, self.directory)
        if state.index.key_dtype != np.dtype(hello["key_dtype"]):
            raise ReplicaError(
                "local key dtype differs from the leader's")
        # fault detector: the log is one append-only file per
        # generation, so a crash leaves an LSN-contiguous prefix and
        # this cannot fire — but a replica resuming past a gap (damaged
        # or hand-edited files) would silently diverge from the leader
        # forever.  Demand contiguity or re-ship.
        records, _torn = await loop.run_in_executor(
            None, read_wal, self.directory / "wal", state.generation)
        lsns = [r.lsn for r in records]
        if lsns and lsns != list(range(lsns[0], lsns[0] + len(lsns))):
            raise ReplicaError(
                "local WAL lost a mid-run record — the tail is not "
                "contiguous; full sync required")
        state.index.source = "replica"
        gens = await loop.run_in_executor(
            None, list_generations, self.directory / "wal")
        # never append after a possibly-torn tail: fresh generation
        generation = max(gens + [state.generation]) + 1
        await self._install(
            state.index, state.flushed_lsns,
            resume_lsn=state.max_lsn, wal_generation=generation,
            manifest_generation=state.generation)

    async def _full_sync(self) -> None:
        """Ship the leader's published generation into the directory."""
        loop = asyncio.get_running_loop()
        conn = self._conn
        r = await conn.request({"op": "repl_manifest"})
        try:
            # before any byte is written: names in a leader-supplied
            # manifest become local paths
            manifest = check_manifest(
                r.get("manifest"), f"the manifest {self.host}:{self.port} sent")
        except IndexPersistError as exc:
            raise ReplicaError(str(exc)) from exc
        key_dtype = np.dtype(manifest["key_dtype"])
        # release the stale local state before deleting it from under
        # its own WAL writer
        await self._teardown_local()
        await loop.run_in_executor(None, _clear_directory, self.directory)
        shards, flushed, lengths = [], [], []
        for slot, name in enumerate(manifest["segments"]):
            blob = bytearray()
            while True:
                part = await conn.request({
                    "op": "repl_fetch", "name": name, "offset": len(blob),
                })
                if not part["data"] and not part["eof"]:
                    raise ReplicaError(f"empty chunk fetching {name}")
                blob.extend(part["data"])
                if part["eof"]:
                    break
            self.bytes_synced += len(blob)
            shard, flushed_lsn, length = await loop.run_in_executor(
                None, _write_segment, self.directory, manifest, slot,
                bytes(blob))
            shards.append(shard)
            flushed.append(flushed_lsn)
            lengths.append(length)
        # every segment verified on disk: publish the commit point
        await loop.run_in_executor(
            None, atomic_write_text, self.directory / MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True, indent=1))
        try:
            await conn.request({"op": "repl_unpin"})
        except Exception:
            pass  # a disconnect releases the pin server-side anyway
        engine = DurabilityManager._build_engine(
            manifest, shards, lengths, key_dtype)
        if engine is None:
            raise ReplicaError(
                "the leader's checkpoint is empty — nothing to replicate")
        engine.source = "replica"
        self.full_syncs += 1
        await self._install(
            engine, flushed, resume_lsn=min(flushed),
            wal_generation=int(manifest["generation"]),
            manifest_generation=int(manifest["generation"]))

    async def _install(self, engine, flushed, *, resume_lsn: int,
                       wal_generation: int,
                       manifest_generation: int) -> None:
        """Swap in a freshly booted engine + its local WAL writer."""
        loop = asyncio.get_running_loop()
        wal = await loop.run_in_executor(
            None, self._open_wal, engine.key_dtype, wal_generation,
            resume_lsn)
        self._index = Index(engine, Index._derive_config(engine))
        self._wal = wal
        self._flushed = [int(f) for f in flushed]
        self.applied_lsn = int(resume_lsn)
        self.generation = int(manifest_generation)
        self._note_progress()
        await loop.run_in_executor(None, self._dump_state)

    def _open_wal(self, key_dtype, generation: int,
                  resume_lsn: int) -> WalWriter:
        return WalWriter(
            self.directory / "wal", key_dtype,
            generation=generation, start_lsn=resume_lsn + 1,
            sync=self._sync_mode)

    async def _teardown_local(self) -> None:
        loop = asyncio.get_running_loop()
        wal, self._wal = self._wal, None
        if wal is not None:
            await loop.run_in_executor(None, wal.close)
        index, self._index = self._index, None
        if index is not None:
            await loop.run_in_executor(None, index.close)

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    async def _ensure_conn(self) -> None:
        if self._conn is not None:
            return
        conn = _LeaderClient(self.host, self.port, timeout=self.timeout,
                             max_frame=self.max_frame)
        await conn.connect()
        self._conn = conn

    async def _drop_conn(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()

    async def _run(self) -> None:
        backoff = 0.05
        while not self._closed:
            try:
                await self._ensure_conn()
                await self._stream()  # returns only via exception
            except asyncio.CancelledError:
                raise
            except _ResyncNeeded:
                self.resyncs += 1
                try:
                    await self._ensure_conn()
                    await self._full_sync()
                    backoff = 0.05
                    continue
                except asyncio.CancelledError:
                    raise
                except Exception:
                    await self._drop_conn()
            except (ReplicaError, IndexPersistError, OSError, ProtocolError,
                    asyncio.TimeoutError):
                await self._drop_conn()
            if self._closed or not self._reconnect:
                break
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2.0, 2.0)

    async def _stream(self) -> None:
        conn = self._conn
        r = await conn.request({
            "op": "repl_subscribe", "from_lsn": self._wal.last_lsn,
        })
        if not isinstance(r, dict) or r.get("mode") != "stream":
            reason = r.get("reason") if isinstance(r, dict) else None
            raise _ResyncNeeded(str(reason or "leader demanded a resync"))
        self.subscriptions += 1
        self.leader_lsn = max(self.leader_lsn, int(r.get("last_lsn", 0)))
        self._note_progress()
        self._ack(force=True)
        # the _closed check matters: wait_for (inside conn.request) can
        # swallow an external cancellation that races the response, so
        # close() cannot rely on CancelledError alone to stop this loop
        while not self._closed:
            push = await conn.pushes.get()
            kind = push.get("kind")
            if kind == "wal":
                await self._apply_push(push)
            elif kind == "hb":
                self.leader_lsn = max(
                    self.leader_lsn, int(push.get("last_lsn", 0)))
                self.leader_generation = int(push.get("generation", 0))
                self._note_progress()
            elif kind == "resync":
                raise _ResyncNeeded("leader evicted our stream position")
            elif kind == "__lost__":
                raise ConnectionResetError(
                    push.get("message", "connection lost"))
            # catching up to the advertised head bypasses the ack rate
            # limit: the leader's lag gauges go to zero promptly
            # instead of waiting out a heartbeat round-trip
            self._ack(force=(kind == "wal"
                             and self.applied_lsn >= self.leader_lsn))
            await self._maybe_dump()

    async def _apply_push(self, push: dict) -> None:
        lsns = push.get("lsn")
        ops = push.get("op")
        shards = push.get("shard")
        keys = push.get("key")
        if not all(isinstance(a, np.ndarray)
                   for a in (lsns, ops, shards, keys)) \
                or not (len(lsns) == len(ops) == len(shards) == len(keys)):
            raise ReplicaError("malformed wal push frame")
        self.bytes_streamed += sum(
            a.nbytes for a in (lsns, ops, shards, keys))
        await asyncio.get_running_loop().run_in_executor(
            None, self._apply_records, lsns, ops, shards, keys)
        self._note_progress()

    def _apply_records(self, lsns, ops, shards, keys) -> None:
        """Append + apply one pushed run (sync; runs in an executor).

        The local WAL append precedes the engine apply, mirroring the
        leader's log-then-acknowledge order; ``tolist()`` round-trips
        uint64/float64 keys exactly.
        """
        wal = self._wal
        index = self._index
        flushed = self._flushed
        for lsn, op, shard, key in zip(
                lsns.tolist(), ops.tolist(), shards.tolist(),
                keys.tolist()):
            if lsn < wal.next_lsn:
                continue  # duplicate after a reconnect race
            if lsn > wal.next_lsn:
                raise _ResyncNeeded(
                    f"gap in the stream (expected LSN {wal.next_lsn}, "
                    f"got {lsn})")
            wal.append(op, shard, key)
            outcome = apply_record(index, flushed, lsn, op, shard, key)
            self.filtered += outcome == "filtered"
            self.apply_skipped += outcome == "skipped"
            self.applied_lsn = lsn
            self.streamed_records += 1

    def _ack(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_ack < self.ack_interval:
            return
        self._last_ack = now
        if self._conn is not None:
            lag = self.lag()
            self._conn.send({
                "op": "repl_ack", "lsn": self.applied_lsn,
                "lag_s": lag.seconds,
            })

    async def _maybe_dump(self) -> None:
        now = time.monotonic()
        if now - self._last_dump < 2.0:
            return
        self._last_dump = now
        await asyncio.get_running_loop().run_in_executor(
            None, self._dump_state)

    def _note_progress(self) -> None:
        if self.applied_lsn >= self.leader_lsn:
            self._behind_since = None
        elif self._behind_since is None:
            self._behind_since = time.monotonic()

    # ------------------------------------------------------------------
    # replica state file
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        return {
            "format": REPLICA_FORMAT_NAME,
            "leader": [self.host, self.port],
            "applied_lsn": self.applied_lsn,
            "leader_lsn": self.leader_lsn,
            "generation": self.generation,
            "bytes_synced": self.bytes_synced,
            "bytes_streamed": self.bytes_streamed,
            "streamed_records": self.streamed_records,
            "filtered": self.filtered,
            "apply_skipped": self.apply_skipped,
            "full_syncs": self.full_syncs,
            "resyncs": self.resyncs,
            "subscriptions": self.subscriptions,
            "updated_unix": time.time(),
        }

    def _dump_state(self) -> None:
        atomic_write_text(
            self.directory / REPLICA_STATE_NAME,
            json.dumps(self._state_dict(), sort_keys=True, indent=1))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def lag(self) -> ReplicaLag:
        """Staleness vs. the leader's last advertised head."""
        behind = max(0, self.leader_lsn - self.applied_lsn)
        if behind == 0 or self._behind_since is None:
            return ReplicaLag(lsns=behind, seconds=0.0)
        return ReplicaLag(
            lsns=behind, seconds=time.monotonic() - self._behind_since)

    def describe(self) -> dict:
        """Counters + watermarks + lag, one flat dict."""
        out = self._state_dict()
        lag = self.lag()
        out["lag_lsn"] = lag.lsns
        out["lag_s"] = lag.seconds
        out["connected"] = self._conn is not None
        out["keys"] = len(self)
        return out

    async def wait_for_lsn(self, lsn: int, timeout: float = 30.0) -> None:
        """Block until the replica applied ``lsn`` (TimeoutError past
        ``timeout`` seconds)."""
        deadline = time.monotonic() + timeout
        while self.applied_lsn < lsn:
            if self._closed:
                raise ReplicaError("the replica is closed")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"replica stuck at LSN {self.applied_lsn} < {lsn} "
                    f"after {timeout}s")
            await asyncio.sleep(0.005)

    async def wait_caught_up(self, timeout: float = 30.0) -> int:
        """Block until the replica applied the leader's *current* head
        LSN (asked via ``repl_hello``); returns that LSN."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                await self._ensure_conn()
                hello = await self._conn.request({"op": "repl_hello"})
                head = int(hello["last_lsn"])
                break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"no leader contact within {timeout}s") from None
                await asyncio.sleep(0.05)
        await self.wait_for_lsn(
            head, timeout=max(0.0, deadline - time.monotonic()))
        return head

    # ------------------------------------------------------------------
    # reads (oracle-exact at applied_lsn)
    # ------------------------------------------------------------------
    def _facade(self) -> Index:
        if self._index is None:
            raise ReplicaError("the replica is closed")
        return self._index

    def lookup(self, q) -> int:
        """Global lower-bound position of ``q`` (leader-exact at
        :attr:`applied_lsn`)."""
        return self._facade().lookup(q)

    def lookup_many(self, queries) -> np.ndarray:
        """Vectorised :meth:`lookup` over a query batch."""
        return self._facade().lookup_many(queries)

    def range(self, lo, hi) -> tuple[int, int]:
        """``[first, last)`` global positions of ``lo <= key < hi``."""
        return self._facade().range(lo, hi)

    def range_many(self, lows, highs):
        """Vectorised :meth:`range` over aligned bound arrays."""
        return self._facade().range_many(lows, highs)

    def count(self, lo, hi) -> int:
        """Cardinality of ``lo <= key < hi``."""
        return self._facade().count(lo, hi)

    def scan(self, lo, hi) -> np.ndarray:
        """Materialised key slice of ``lo <= key < hi``."""
        return self._facade().scan(lo, hi)

    def scan_many(self, lows, highs) -> list[np.ndarray]:
        """Materialised key slices per ``(lo, hi)`` range."""
        return self._facade().scan_many(lows, highs)

    @property
    def keys(self) -> np.ndarray:
        """The replica's live, sorted global key array."""
        return self._facade().keys

    @property
    def key_dtype(self) -> np.dtype:
        """Dtype of the replicated keys."""
        return self._facade().key_dtype

    def __len__(self) -> int:
        return len(self._facade())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop streaming, close the local WAL + facade, dump state.

        The directory remains a valid durable directory:
        ``repro.open()`` promotes it to a standalone writable index.
        """
        if self._closed:
            return
        self._closed = True
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
        # drop the connection BEFORE awaiting the task: the wait_for
        # inside the client's request can swallow a cancellation that
        # races a response, leaving _run streaming in a "cancelling"
        # state; the __lost__ push from the closing connection unwinds
        # it anyway, and the bounded wait keeps close() finite regardless
        await self._drop_conn()
        if task is not None:
            try:
                await asyncio.wait_for(task, timeout=30.0)
            except (asyncio.CancelledError, Exception):
                pass
        loop = asyncio.get_running_loop()
        wal, self._wal = self._wal, None
        if wal is not None:
            await loop.run_in_executor(None, wal.close)
        await loop.run_in_executor(None, self._dump_state)
        index, self._index = self._index, None
        if index is not None:
            await loop.run_in_executor(None, index.close)

    async def __aenter__(self) -> "ReplicaIndex":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        closed = " closed" if self._closed else ""
        return (f"ReplicaIndex(leader={self.host}:{self.port}, "
                f"applied_lsn={self.applied_lsn}, "
                f"lag={self.lag().lsns}{closed})")


async def follow(addr, directory, *, sync: str = "async",
                 reconnect: bool = True, ack_interval: float = 0.25,
                 timeout: float = 30.0,
                 max_frame: int = DEFAULT_MAX_FRAME) -> ReplicaIndex:
    """Start (or resume) a read replica of the leader at ``addr``.

    ``addr`` is the leader's serving ``(host, port)`` — a durable
    index behind ``Index.serve(addr=...)`` or CLI ``serve --load``;
    ``directory`` is the replica's local durable directory — empty for
    a first full sync, or a previous :func:`follow` target to resume
    incrementally from its local WAL head.  ``sync`` sets the local
    WAL fsync policy (default ``"async"``: replica durability comes
    from re-syncing, not fsync).  Returns a live
    :class:`ReplicaIndex`; use as an async context manager or
    ``await replica.close()`` when done.
    """
    host, port = addr
    replica = ReplicaIndex(
        host, port, directory, sync=sync, reconnect=reconnect,
        ack_interval=ack_interval, timeout=timeout, max_frame=max_frame)
    try:
        await replica._bootstrap()
    except BaseException:
        await replica.close()
        raise
    return replica
