"""Write-ahead log: CRC-framed mutation records, one file per generation.

The durability layer's first half (the second is
:mod:`repro.engine.durability`): every ``insert``/``delete`` the sharded
engine applies is appended here *before* it is acknowledged, so a crash
can lose at most the un-fsynced tail — never a write the caller was told
succeeded.

Layout
------
A WAL lives under ``<root>/wal/`` as numbered **generations**, one
append-only file each (one per checkpoint pass — rotating at a pass's
start is what lets whole older generations be deleted once the pass
publishes):

.. code-block:: text

    wal/
      g0000000001.wal
      g0000000002.wal

The engine has one writer at a time (its write lock), so the log is one
sequence: every record carries a global, monotonically increasing
**LSN** and the id of the **shard** that absorbed the write (what
recovery's per-shard ``flushed_lsn`` filter reads), and file order *is*
LSN order *is* apply order.  Because appends never rewrite earlier
bytes, whatever a crash leaves behind is a **prefix** of the applied
history — a torn tail can only ever be a suffix.

Record framing (little-endian)::

    u32 crc32(payload) | u32 payload_length | payload
    payload = u64 lsn | u8 op | u32 shard | key bytes (dtype.itemsize)

Each file starts with a header: ``b"RWAL"``, a format version, and the
key dtype string.  A torn tail — the frame being written when the
process died — fails its CRC (or runs out of bytes) and ends the
replay; a bad frame with intact frames *after* it is damage, not a
crash, and raises :class:`WalError`.

Durability contract
-------------------
``append()`` buffers; a record is only *durable* once :meth:`WalWriter.commit`
has returned, which flushes the file and ``fsync``\\ s it — one fsync
however many records (and shards) the group touched.  Three sync modes:

* ``"always"`` — the owner commits after every append: one fsync per
  write, strongest guarantee, slowest.
* ``"group"``  — appends accumulate and a later ``commit()`` makes the
  whole group durable with one fsync (the serving layer batches
  concurrent writers onto one commit; the engine path auto-commits
  every ``group_ops`` appends as a backstop).
* ``"async"``  — ``commit()`` flushes to the OS but never fsyncs; a
  process crash loses nothing, a power loss may lose the tail.

:attr:`WalWriter.durable_lsn` reports the highest LSN guaranteed to
survive, which is what "acknowledged" means one layer up.
"""

from __future__ import annotations

import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.serialize import fsync_dir

#: File magic; a file not starting with it is not a WAL generation.
WAL_MAGIC = b"RWAL"

#: On-disk WAL format version; bump on incompatible layout or framing
#: changes.  Version 1 kept a directory of per-shard lane files per
#: generation; version 2 is one file per generation.
WAL_VERSION = 2

#: Sync policies a :class:`WalWriter` can be opened with.
WAL_SYNC_MODES = ("always", "group", "async")

#: Record opcodes.
OP_INSERT = 1
OP_DELETE = 2

_HEADER = struct.Struct("<4sHH")  # magic, version, dtype-string length
_FRAME = struct.Struct("<II")  # crc32(payload), payload length
_PAYLOAD_HEAD = struct.Struct("<QBI")  # lsn, op, shard

_GEN_RE = re.compile(r"^g(\d{10})\.wal$")
_V1_GEN_RE = re.compile(r"^g\d{10}$")  # a version-1 generation directory


class WalError(ValueError):
    """A WAL file could not be written or read back.

    Raised for unreadable headers, an unsupported format version (an
    old per-shard-lane layout included), or corruption *before* the
    tail (a bad frame followed by intact frames means the file was
    damaged, not torn by a crash).
    """


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation: ``(lsn, op, shard, key)``.

    ``op`` is :data:`OP_INSERT` or :data:`OP_DELETE`; ``shard`` is the
    shard id the engine applied the write to at log time (used by
    recovery to decide whether a checkpoint segment already contains the
    effect); ``key`` is a numpy scalar in the index's key dtype.
    """

    lsn: int
    op: int
    shard: int
    key: object


def _generation_path(wal_root: Path, generation: int) -> Path:
    """The log file of WAL generation ``generation`` (``g<10 digits>.wal``)."""
    if generation < 0:
        raise ValueError("WAL generation must be non-negative")
    return wal_root / f"g{generation:010d}.wal"


def list_generations(wal_root: str | Path) -> list[int]:
    """Sorted generation numbers present under ``wal_root``.

    Raises :class:`WalError` for a version-1 layout (generation
    *directories* of per-shard lane files): reading it as "no records"
    would silently drop every write since its last checkpoint.
    """
    wal_root = Path(wal_root)
    if not wal_root.is_dir():
        return []
    found = []
    for child in wal_root.iterdir():
        match = _GEN_RE.match(child.name)
        if match:
            found.append(int(match.group(1)))
        elif _V1_GEN_RE.match(child.name) and child.is_dir():
            raise WalError(
                f"{child} is a WAL format version 1 generation "
                "(per-shard lane files); this library reads version "
                f"{WAL_VERSION} only"
            )
    return sorted(found)


class WalWriter:
    """Appends CRC-framed mutation records to the generation's log file.

    One writer owns the log at a time (the engine's write lock already
    serialises mutations).  Two small internal locks make ``commit()``
    safe to call from a different thread than ``append()`` — which is
    how the serving layer runs group fsyncs off the event loop — without
    ever parking an ``append()`` behind a commit's ``fsync``: ``_mutex``
    guards the buffer and the LSN counters and is released while the
    fsync runs; ``_sync_lock`` makes commits, rotation and close
    mutually exclusive so no file is closed under an in-flight fsync.  ``start_lsn`` seeds the LSN counter — recovery
    reopens the log with ``max replayed LSN + 1`` so LSNs stay globally
    unique across crashes.
    """

    def __init__(
        self,
        wal_root: str | Path,
        key_dtype: np.dtype,
        *,
        generation: int = 1,
        start_lsn: int = 1,
        sync: str = "group",
        group_ops: int = 256,
    ) -> None:
        if sync not in WAL_SYNC_MODES:
            raise ValueError(
                f"sync must be one of {WAL_SYNC_MODES}, got {sync!r}"
            )
        if group_ops < 1:
            raise ValueError("group_ops must be >= 1")
        self.wal_root = Path(wal_root)
        self.key_dtype = np.dtype(key_dtype)
        self.sync = sync
        self.group_ops = group_ops
        self._mutex = threading.Lock()
        self._sync_lock = threading.Lock()  # order: _sync_lock -> _mutex
        self._next_lsn = int(start_lsn)
        self._durable_lsn = int(start_lsn) - 1
        self._uncommitted = 0
        self._closed = False
        self.wal_root.mkdir(parents=True, exist_ok=True)
        self._open_generation(int(generation))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The generation new records append to (rotates per checkpoint)."""
        return self._generation

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will carry."""
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record (0 before any)."""
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """Highest LSN guaranteed to survive a crash (post-``commit``).

        Under ``sync="async"`` this tracks flushes (the strongest
        statement that mode can make).
        """
        return self._durable_lsn

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, op: int, shard: int, key) -> int:
        """Frame and buffer one record; returns its LSN.

        Durable only after :meth:`commit` (which ``sync="always"`` runs
        inline).  A ``sync="group"`` writer auto-commits every
        ``group_ops`` appends as a backstop so an owner that forgets to
        commit still bounds the window of loss.
        """
        if shard < 0:
            raise WalError(f"invalid shard id {shard} in WAL append")
        key_scalar = self.key_dtype.type(key)
        with self._mutex:
            if self._closed:
                raise WalError("cannot append to a closed WAL writer")
            lsn = self._next_lsn
            self._next_lsn += 1
            payload = _PAYLOAD_HEAD.pack(lsn, op, shard) + \
                key_scalar.tobytes()
            self._fh.write(
                _FRAME.pack(zlib.crc32(payload), len(payload)) + payload)
            self._uncommitted += 1
            due = self.sync == "always" or (
                self.sync == "group" and self._uncommitted >= self.group_ops
            )
        if due:
            self.commit()
        return lsn

    def commit(self) -> int:
        """Make every appended record durable; returns the durable LSN.

        One flush plus — except under ``sync="async"`` — one ``fsync``,
        however many appends (to however many shards) accumulated: this
        *is* the group commit.  The fsync runs outside the append
        mutex, so records appended while it is in flight are neither
        blocked by it nor covered by it.
        """
        with self._sync_lock:
            return self._commit_locked()

    def _commit_locked(self) -> int:
        with self._mutex:
            if self._closed:
                return self._durable_lsn
            head = self._next_lsn - 1
            self._fh.flush()
            self._uncommitted = 0
        if self.sync != "async":
            os.fsync(self._fh.fileno())
        with self._mutex:
            self._durable_lsn = max(self._durable_lsn, head)
            return self._durable_lsn

    def rotate(self, generation: int) -> None:
        """Close the current generation and append to a new one.

        Called at the start of a checkpoint pass: records before the
        rotation land in generations the pass will supersede, records
        after it in the generation the new manifest references.
        """
        with self._sync_lock:
            if generation <= self._generation:
                raise WalError(
                    f"cannot rotate backwards (at generation "
                    f"{self._generation}, asked for {generation})"
                )
            self._commit_locked()
            with self._mutex:
                self._fh.close()
                self._open_generation(generation)

    def drop_generations_below(self, generation: int) -> int:
        """Delete whole generations older than ``generation``; returns count.

        Safe once a manifest of generation ``generation`` is published:
        every record in an older generation predates all of that
        manifest's per-shard flush LSNs.
        """
        dropped = 0
        for gen in list_generations(self.wal_root):
            if gen < generation:
                _generation_path(self.wal_root, gen).unlink(missing_ok=True)
                dropped += 1
        if dropped:
            fsync_dir(self.wal_root)
        return dropped

    def close(self) -> None:
        """Commit outstanding records and release the file handle."""
        with self._sync_lock:
            self._commit_locked()
            with self._mutex:
                if not self._closed:
                    self._closed = True
                    self._fh.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _open_generation(self, generation: int) -> None:
        """Open (creating) the generation's file; caller excludes appends."""
        self._generation = generation
        self._fh = open(_generation_path(self.wal_root, generation), "ab")
        if self._fh.tell() == 0:
            dtype_bytes = self.key_dtype.str.encode("ascii")
            self._fh.write(
                _HEADER.pack(WAL_MAGIC, WAL_VERSION, len(dtype_bytes))
                + dtype_bytes)
            self._fh.flush()
        # the directory entry is durable from here on, so every later
        # commit is exactly one file fsync
        fsync_dir(self.wal_root)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def read_generation(path: str | Path) -> tuple[list[WalRecord], bool]:
    """Decode one generation file: ``(records, torn)``.

    Reads frames until the file ends cleanly or a frame fails (short
    header, short payload, CRC mismatch).  A failing *final* frame is a
    torn tail — the crash the WAL exists to survive — and simply ends
    the log (``torn=True``): the records before it are an exact prefix
    of what was applied.  A failing frame with intact frames after it
    means mid-file damage and raises :class:`WalError`: replaying past
    silent corruption would resurrect an inconsistent history.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        # a crash right after the file's creation can leave a truncated
        # (or empty) header: a torn, record-less log, not corruption
        return [], True
    magic, version, dtype_len = _HEADER.unpack_from(blob, 0)
    if magic != WAL_MAGIC:
        raise WalError(f"{path} is not a WAL file (bad magic)")
    if version != WAL_VERSION:
        raise WalError(
            f"{path} uses WAL format version {version}; this library "
            f"reads version {WAL_VERSION} only"
        )
    offset = _HEADER.size
    if offset + dtype_len > len(blob):
        return [], True  # header torn mid-dtype-string
    try:
        key_dtype = np.dtype(blob[offset:offset + dtype_len].decode("ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise WalError(f"{path} has an unreadable key dtype: {exc}") from exc
    offset += dtype_len
    expected_payload = _PAYLOAD_HEAD.size + key_dtype.itemsize

    records: list[WalRecord] = []
    torn = False
    while offset < len(blob):
        frame_end = offset + _FRAME.size
        if frame_end > len(blob):
            torn = True
            break
        crc, length = _FRAME.unpack_from(blob, offset)
        payload = blob[frame_end:frame_end + length]
        if (
            length != expected_payload
            or len(payload) != length
            or zlib.crc32(payload) != crc
        ):
            torn = True
            break
        lsn, op, shard = _PAYLOAD_HEAD.unpack_from(payload, 0)
        key = np.frombuffer(
            payload, dtype=key_dtype, count=1, offset=_PAYLOAD_HEAD.size
        )[0]
        records.append(WalRecord(lsn, op, shard, key))
        offset = frame_end + length
    if torn and _has_intact_frame_after(blob, offset, expected_payload):
        raise WalError(
            f"{path} is corrupted mid-file (bad frame followed by an "
            "intact one) — refusing to replay past silent damage"
        )
    return records, torn


def _has_intact_frame_after(blob: bytes, offset: int,
                            expected_payload: int) -> bool:
    """Scan past a bad frame for any later frame that still checks out."""
    probe = offset + 1
    frame_size = _FRAME.size + expected_payload
    while probe + frame_size <= len(blob):
        crc, length = _FRAME.unpack_from(blob, probe)
        if length == expected_payload:
            payload = blob[probe + _FRAME.size:probe + frame_size]
            if zlib.crc32(payload) == crc:
                return True
        probe += 1
    return False


def read_wal(wal_root: str | Path, min_generation: int = 0,
             ) -> tuple[list[WalRecord], bool]:
    """Every generation ``>= min_generation`` as one LSN-ordered record
    list: ``(records, torn)``.

    Generations are read in order and each is already in LSN order, so
    there is nothing to merge.  ``torn`` reports whether any generation
    ended in a torn tail — expected after a crash, interesting for
    diagnostics either way.
    """
    wal_root = Path(wal_root)
    records: list[WalRecord] = []
    torn = False
    for gen in list_generations(wal_root):
        if gen < min_generation:
            continue
        gen_records, gen_torn = read_generation(
            _generation_path(wal_root, gen))
        records.extend(gen_records)
        torn = torn or gen_torn
    return records, torn


__all__ = [
    "OP_DELETE",
    "OP_INSERT",
    "WAL_MAGIC",
    "WAL_SYNC_MODES",
    "WAL_VERSION",
    "WalError",
    "WalRecord",
    "WalWriter",
    "list_generations",
    "read_generation",
    "read_wal",
]
