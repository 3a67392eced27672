"""The saved-index directory: checkpoints + WAL + crash recovery.

A saved index is a checkpoint directory, following the production
pattern of learned indexes over immutable on-disk runs plus delta
buffers ("Learned Indexes for a Google-scale Disk-based Database"):
models are expensive to fit and cheap to use, so reopening *replays
data into buffers* and never refits models.  One layout::

    index.db/
      MANIFEST.json                  # generation-counted root pointer
      segments/g<gen>-s<shard>.npz   # one checkpointed shard each
      wal/g<gen>.wal                 # CRC-framed mutation log, one file
                                     # per generation (durable only)

What the manifest's WAL policy (``"sync"``) records tells the two
lifecycles apart: a **snapshot** (:func:`save_snapshot`) records none
and has no ``wal/`` — one published generation, opened memory-only and
never written to by a reader; a **durable directory**
(:class:`DurabilityManager`) records one, logs every write and
checkpoints in place.  Both publish and reopen through the same code.

* **WAL** (:mod:`repro.engine.wal`) — every applied ``insert``/``delete``
  is appended (via the engine's :class:`~repro.engine.sharded.WriteEvent`
  hook, under the write lock, so LSN order *is* apply order *is* file
  order) and group-commit fsynced.  A write is *acknowledged* once its
  LSN is ``durable_lsn`` or below, and whatever a crash leaves of the
  log is a prefix of it: **recovery yields a prefix of the applied
  history**, never a state the index was not in.
* **Incremental checkpoints** — a pass (checkpoint or snapshot alike)
  flushes **one shard at a time**: the engine write lock is held only
  while a shard is snapshotted into owned array copies
  (:func:`~repro.engine.persist.encode_shard_state`); serialising and
  fsyncing the segment file happens with no lock held.  Writers are
  never blocked for longer than one shard's snapshot, and without a WAL
  to order them a snapshot holds the racing writes that reached each
  shard before its turn.  Structural maintenance (splits/merges) is
  deferred for the duration (:meth:`ShardedIndex.defer_maintenance`) so
  shard ids in segment files and WAL records agree; it catches up the
  moment the pass ends.  Each segment records the WAL position
  (``flushed_lsn``) its state already contains.
* **Reopening** — :func:`replay_directory` loads the last *published*
  manifest (manifests are fsynced and atomically replaced, so a crash
  mid-pass leaves the previous generation intact), decodes every
  segment without refitting, and replays the WAL tail: a record
  is applied unless its LSN is at or below the flushed LSN of the shard
  it was originally applied to.  Replayed writes flow through the
  ordinary ``insert``/``delete`` paths, which the ``gapped``/``fenwick``
  backends absorb into their pending-update buffers — stale model plus
  fresh deltas, refit only when ordinary maintenance decides to.

Consistency argument (why the per-shard LSN filter is exact): shard
structure is frozen during a pass, so a record tagged ``s`` with
``lsn <= flushed_lsn[s]`` was applied before shard ``s`` was
snapshotted — its effect is inside the segment; one with a larger LSN
was applied after — its effect is not, and cannot be inside any *other*
segment because the key routed to ``s`` for as long as the structure
stayed frozen.  Records from before the pass are below every flushed
LSN (the WAL rotates to a fresh generation at pass start); records
after it are above every flushed LSN; both fall out of the same test.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.serialize import atomic_write_text, fsync_dir
from .persist import (
    IndexPersistError,
    _config_from_dict,
    _config_to_dict,
    encode_shard_state,
    load_shard_segment,
    save_shard_segment,
)
from .sharded import ShardedIndex, WriteEvent
from .wal import (
    OP_DELETE,
    OP_INSERT,
    WalWriter,
    list_generations,
    read_wal,
)

#: Manifest magic of a saved-index directory (snapshot or durable).
DURABLE_FORMAT_NAME = "repro-durable-index"

#: Directory layout version; bump on incompatible changes.
#: Version 2: the WAL is one file per generation (was per-shard lanes).
DURABLE_FORMAT_VERSION = 2

#: The generation-counted root pointer file.
MANIFEST_NAME = "MANIFEST.json"

_SEGMENT_RE = re.compile(r"^g(\d{10})-s(\d{4})\.npz$")


class DurabilityError(IndexPersistError):
    """A saved-index directory could not be written or reopened.

    Raised with a human-readable reason: not an index directory (an old
    whole-engine ``.npz`` archive included), an unsupported layout
    version, a manifest and segment that disagree, an unrecoverable
    (empty) state, or a checkpoint attempted on an empty index.
    """


def is_durable_dir(path: str | Path) -> bool:
    """Whether ``path`` holds a published manifest (snapshot or durable)."""
    return (Path(path) / MANIFEST_NAME).is_file()


def _segment_name(generation: int, shard: int) -> str:
    return f"segments/g{generation:010d}-s{shard:04d}.npz"


def _refuse_file(root: Path) -> None:
    if root.is_file():
        raise DurabilityError(
            f"{root} is a file, not a saved-index directory — the "
            "whole-engine .npz archives older releases wrote are no longer "
            "read: rebuild the index from its keys and save() it again"
        )


def check_manifest(manifest: object, where: str | Path) -> dict:
    """Validate a manifest read from disk or received from a leader,
    before any path is derived from it: slot ``s`` of generation ``g``
    must be named exactly ``segments/g<g>-s<s>.npz``, so an absolute or
    ``../`` name is never joined to a root (``Path("/d") / "/x"`` is ``/x``).
    """
    if not isinstance(manifest, dict) \
            or manifest.get("format") != DURABLE_FORMAT_NAME:
        raise DurabilityError(f"{where} is not a saved-index manifest")
    version = manifest.get("format_version")
    if version != DURABLE_FORMAT_VERSION:
        raise DurabilityError(
            f"{where} uses durable layout version {version}; this "
            f"library reads version {DURABLE_FORMAT_VERSION} only"
        )
    generation, segments = manifest.get("generation"), manifest.get("segments")
    if not isinstance(generation, int) or not isinstance(segments, list):
        raise DurabilityError(f"{where} lists no generation/segments")
    for slot, name in enumerate(segments):
        if name != _segment_name(generation, slot):
            raise DurabilityError(
                f"{where} names {name!r} where only "
                f"{_segment_name(generation, slot)!r} is accepted "
                "(segment paths never leave the directory)"
            )
    return manifest


def load_manifest(root: str | Path) -> dict:
    """Read and validate the published ``MANIFEST.json`` under ``root``."""
    root = Path(root)
    _refuse_file(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise DurabilityError(
            f"{root} is not a durable index directory or snapshot "
            f"(no {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise DurabilityError(
            f"{manifest_path} is unreadable: {exc}"
        ) from exc
    return check_manifest(manifest, manifest_path)


def load_segment(root: Path, manifest: dict, slot: int):
    """``(shard, flushed_lsn, length)`` of slot ``slot`` of a checked
    manifest.  A segment of another shard or generation copied over the
    right name passes its checksum, so its own claim is checked too.
    """
    path = root / manifest["segments"][slot]
    seg, shard = load_shard_segment(path)
    held = seg.get("shard_id"), seg.get("generation")
    if held != (slot, manifest["generation"]):
        raise DurabilityError(
            f"{path} holds shard {held[0]} of generation {held[1]}, not "
            f"shard {slot} of generation {manifest['generation']}"
        )
    return shard, int(seg["flushed_lsn"]), int(seg["length"])


@dataclass
class RecoveredState:
    """Everything :func:`replay_directory` rebuilt from a directory."""

    root: Path
    manifest: dict
    index: ShardedIndex
    flushed_lsns: list[int]
    max_lsn: int
    replayed: int
    skipped: int
    torn: bool

    @property
    def generation(self) -> int:
        """Generation of the manifest the state was rebuilt from."""
        return int(self.manifest["generation"])


def apply_record(index, flushed_lsns: list[int], lsn: int, op: int,
                 shard: int, key) -> str:
    """Apply one logged write the way recovery does; says what happened.

    ``"filtered"`` — the per-shard flushed-LSN filter (module docstring)
    found its effect already inside shard ``shard``'s segment;
    ``"applied"`` — inserted or deleted through the ordinary write path;
    ``"skipped"`` — a delete of an absent key.  Recovery
    (:func:`replay_directory`) and the replication follower share it.
    """
    if shard < len(flushed_lsns) and lsn <= flushed_lsns[shard]:
        return "filtered"
    if op == OP_INSERT:
        index.insert(key)
        return "applied"
    if op != OP_DELETE:
        raise DurabilityError(f"unknown WAL opcode {op} at LSN {lsn}")
    try:
        index.delete(key)
    except KeyError:
        # a torn, never-acknowledged tail can keep a delete whose
        # matching insert was lost; acknowledged records can never hit
        # this (their dependencies were fsynced by the same or an
        # earlier commit)
        return "skipped"
    return "applied"


def replay_directory(root: str | Path) -> RecoveredState:
    """Rebuild the live engine state a saved-index directory describes.

    The one read path: :func:`repro.open`, :meth:`DurabilityManager.recover`,
    CLI ``inspect`` and the replication follower (:mod:`repro.replica`)
    all boot through it.  Loads the published manifest's segments
    (checksum-verified, no refitting) and replays the WAL tail — empty
    for a snapshot — in LSN order through the ordinary write paths,
    applying the per-shard flushed-LSN filter documented in the module
    docstring.  Pure read: opens no WAL writer, attaches no listeners,
    mutates nothing on disk.
    """
    root = Path(root)
    manifest = load_manifest(root)
    key_dtype = np.dtype(manifest["key_dtype"])

    shards, flushed_lsns, lengths = [], [], []
    for slot in range(len(manifest["segments"])):
        shard, flushed, length = load_segment(root, manifest, slot)
        shards.append(shard)
        flushed_lsns.append(flushed)
        lengths.append(length)

    records, torn = read_wal(
        root / "wal", min_generation=int(manifest["generation"])
    )
    index = DurabilityManager._build_engine(
        manifest, shards, lengths, key_dtype
    )
    replayed = skipped = 0
    for r in records:
        if index is not None:
            outcome = apply_record(
                index, flushed_lsns, r.lsn, r.op, r.shard, r.key)
            replayed += outcome == "applied"
            skipped += outcome == "skipped"
        elif r.shard < len(flushed_lsns) and r.lsn <= flushed_lsns[r.shard]:
            continue  # effect already inside that (empty) segment
        elif r.op != OP_INSERT:
            skipped += 1  # a delete cannot land on emptiness
        else:
            index = DurabilityManager._seed_engine(manifest, r.key, key_dtype)
            replayed += 1
    if index is None:
        raise DurabilityError(
            f"{root} replayed to an empty index (all keys deleted and "
            "no inserts to replay) — nothing to reopen"
        )
    index.source = "loaded" if manifest.get("sync") is None else "recovered"
    max_lsn = max([r.lsn for r in records] + flushed_lsns + [0])
    return RecoveredState(
        root=root, manifest=manifest, index=index,
        flushed_lsns=flushed_lsns, max_lsn=max_lsn,
        replayed=replayed, skipped=skipped, torn=torn,
    )


def _publish_generation(
    index: ShardedIndex, root: Path, generation: int, *,
    wal: WalWriter | None = None, sync: str | None = None,
    index_config: dict | None = None, resume: bool = True,
) -> dict:
    """Flush every shard to ``segments/``, then publish ``MANIFEST.json``.

    The one write path: :meth:`DurabilityManager.checkpoint` passes its
    ``wal`` and ``sync`` policy, :func:`save_snapshot` neither (flushed
    LSNs are 0 and the manifest records no policy).
    """
    if len(index) == 0:
        raise DurabilityError("cannot checkpoint an empty index (no keys)")
    (root / "segments").mkdir(exist_ok=True)
    with index._write_lock:
        index.defer_maintenance()
        if wal is not None:
            # records before this rotation land in generations the new
            # manifest supersedes; after it, in the one it keeps
            wal.rotate(generation)
        num_shards = index.num_shards
    published = False
    try:
        segments: list[str] = []
        flushed_lsns: list[int] = []
        for s in range(num_shards):
            with index._write_lock:
                shard = index.shards[s]
                entry, arrays = encode_shard_state(shard)
                length = 0 if shard is None else len(shard)
                flushed = 0 if wal is None else wal.last_lsn
            # lock released: serialise + fsync without blocking
            name = _segment_name(generation, s)
            save_shard_segment(
                root / name, entry, arrays,
                shard_id=s, generation=generation,
                flushed_lsn=flushed, length=length,
            )
            segments.append(name)
            flushed_lsns.append(flushed)
        with index._write_lock:
            tuner = index.tuner
            manifest = {
                "format": DURABLE_FORMAT_NAME,
                "format_version": DURABLE_FORMAT_VERSION,
                "generation": generation,
                "key_dtype": index.key_dtype.str,
                "sync": sync,
                "name": index.name,
                "backend": index.backend_kind,
                "config": _config_to_dict(index.config),
                "auto_tune": (
                    tuner.config.to_dict()
                    if tuner is not None else None
                ),
                "target_shard_keys": index._target_shard_keys,
                "num_splits": index.num_splits,
                "num_merges": index.num_merges,
                "index_config": index_config,
                "segments": segments,
                "flushed_lsns": flushed_lsns,
                "next_lsn": 1 if wal is None else wal.next_lsn,
            }
        atomic_write_text(
            root / MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True, indent=1),
        )
        published = True
    finally:
        if resume or not published:
            index.resume_maintenance()
    return manifest


def _drop_stale_segments(root: Path, generation: int) -> None:
    seg_dir = root / "segments"
    removed = False
    for path in seg_dir.iterdir():
        match = _SEGMENT_RE.match(path.name)
        if match and int(match.group(1)) < generation:
            path.unlink(missing_ok=True)
            removed = True
    if removed:
        fsync_dir(seg_dir)


def save_snapshot(
    index: ShardedIndex, root: str | Path, *,
    index_config: dict | None = None,
) -> dict:
    """Publish ``index`` as one WAL-less checkpoint generation at ``root``.

    Saving onto an existing snapshot publishes generation ``g+1`` and
    then drops ``g``'s segments, so a failure at any point leaves the
    old generation opening bit-identically.  Publishers of one path
    take turns on an advisory lock on the directory: two racing saves
    leave one of the two indexes, whole.  A file (an old whole-engine
    ``.npz``) or a durable directory at ``root`` is refused by name.
    Returns the published manifest.
    """
    import fcntl  # POSIX-only, like the advisory lock it provides

    root = Path(root)
    _refuse_file(root)
    root.mkdir(parents=True, exist_ok=True)
    fd = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        generation = 1
        if is_durable_dir(root):
            previous = load_manifest(root)
            if previous.get("sync") is not None:
                raise DurabilityError(
                    f"{root} is a durable directory (WAL policy "
                    f"{previous['sync']!r}): checkpoint() it instead"
                )
            generation = previous["generation"] + 1
        manifest = _publish_generation(
            index, root, generation, index_config=index_config
        )
        _drop_stale_segments(root, generation)
    finally:
        os.close(fd)  # closing the descriptor releases the lock
    return manifest


class DurabilityManager:
    """Owns one index's WAL, checkpoints and recovery lifecycle.

    Create with :meth:`create` (fresh directory around a live engine) or
    :meth:`recover` (reopen after a crash or clean shutdown); both
    attach the manager as a write listener, after which every engine
    mutation is logged before the caller hears back.  ``sync``
    (:data:`~repro.engine.wal.WAL_SYNC_MODES`) sets the fsync policy:
    ``"always"`` commits inside the write call, ``"group"`` leaves the
    fsync to :meth:`commit` (one fsync acknowledges many writes — the
    asyncio server batches concurrent writers onto one), ``"async"``
    never fsyncs.  Thread-safe the way the engine is: mutations are
    serialised by the engine write lock, and :meth:`commit` /
    :meth:`checkpoint` may run from another thread (the server runs
    both off the event loop).
    """

    def __init__(
        self,
        index: ShardedIndex,
        root: str | Path,
        wal: WalWriter,
        *,
        generation: int,
        sync: str,
        index_config: dict | None = None,
        manifest: dict | None = None,
        replayed: int = 0,
        skipped: int = 0,
        keep_generations: int = 0,
    ) -> None:
        if keep_generations < 0:
            raise DurabilityError("keep_generations must be >= 0")
        self.index = index
        self.root = Path(root)
        self.wal = wal
        self.sync = sync
        #: WAL generations retained *behind* the published one so a
        #: briefly-disconnected replication follower can resume from its
        #: flushed LSN instead of re-syncing the whole generation
        #: (0 restores the prune-immediately behaviour)
        self.keep_generations = int(keep_generations)
        #: generation of the last *published* manifest
        self.generation = generation
        #: the manifest currently on disk (None until first checkpoint)
        self.manifest = manifest
        #: facade-level config dict carried through manifests verbatim
        self.index_config = index_config
        #: WAL records applied / skipped by the recovery that built this
        #: manager (both 0 for :meth:`create`)
        self.replayed = replayed
        self.skipped = skipped
        self._checkpoint_lock = threading.Lock()
        self._listening = False
        self._closed = False
        #: replication taps: ``fn(lsn, op, shard, key)`` per WAL append
        self._record_listeners: list = []
        self._pin_lock = threading.Lock()
        self._pins: dict[int, int] = {}
        self._next_pin = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        index: ShardedIndex,
        root: str | Path,
        *,
        sync: str = "group",
        group_ops: int = 256,
        index_config: dict | None = None,
        keep_generations: int = 0,
    ) -> "DurabilityManager":
        """Wrap a live engine in a fresh durable directory.

        Writes the initial checkpoint (generation 1) so recovery always
        has a base to replay onto, then starts logging.  Refuses a
        directory that already holds a saved index — reopening one is
        :meth:`recover`'s job, and silently re-initialising would orphan
        its WAL.
        """
        root = Path(root)
        if is_durable_dir(root):
            raise DurabilityError(
                f"{root} already contains a saved index — use "
                "DurabilityManager.recover() to reopen a durable one"
            )
        root.mkdir(parents=True, exist_ok=True)
        wal = WalWriter(
            root / "wal", index.key_dtype,
            generation=0, start_lsn=1, sync=sync, group_ops=group_ops,
        )
        manager = cls(
            index, root, wal, generation=0, sync=sync,
            index_config=index_config, keep_generations=keep_generations,
        )
        manager._attach()
        try:
            manager.checkpoint()
        except BaseException:
            manager.close()
            raise
        return manager

    @classmethod
    def recover(
        cls,
        root: "str | Path | RecoveredState",
        *,
        sync: str | None = None,
        group_ops: int = 256,
        keep_generations: int = 0,
    ) -> "DurabilityManager":
        """Reopen a durable directory: last good checkpoint + WAL replay.

        Rebuilds the engine through :func:`replay_directory` (or takes
        the :class:`RecoveredState` of a replay already done) and
        resumes logging on a fresh WAL generation with continuing LSNs.
        ``sync=None`` keeps the policy recorded in the manifest; a
        snapshot records none and is refused.  Raises
        :class:`DurabilityError` for directories that are not (or no
        longer) recoverable.
        """
        state = root if isinstance(root, RecoveredState) \
            else replay_directory(root)
        root, manifest = state.root, state.manifest
        if manifest.get("sync") is None:
            raise DurabilityError(
                f"{root} is a snapshot, not a durable directory: its "
                "manifest records no WAL policy"
            )
        sync = sync or manifest["sync"]
        wal_gens = list_generations(root / "wal")
        next_generation = max(wal_gens + [state.generation]) + 1
        wal = WalWriter(
            root / "wal", state.index.key_dtype,
            generation=next_generation, start_lsn=state.max_lsn + 1,
            sync=sync, group_ops=group_ops,
        )
        manager = cls(
            state.index, root, wal,
            generation=state.generation, sync=sync,
            index_config=manifest.get("index_config"), manifest=manifest,
            replayed=state.replayed, skipped=state.skipped,
            keep_generations=keep_generations,
        )
        manager._attach()
        return manager

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        if not self._listening:
            self.index.add_write_listener(self._on_write)
            self._listening = True

    def _on_write(self, event: WriteEvent) -> None:
        # runs under the engine write lock, after the mutation applied:
        # LSN order is apply order, and only *successful* writes log
        if event.kind == "insert":
            op = OP_INSERT
        elif event.kind == "delete":
            op = OP_DELETE
        else:
            return  # refresh/retune never change the logical keys
        lsn = self.wal.append(op, event.shard, event.key)
        for listener in list(self._record_listeners):
            listener(lsn, op, event.shard, event.key)

    def add_record_listener(self, fn) -> None:
        """Register ``fn(lsn, op, shard, key)``, called for every WAL
        append at the engine apply point (still under the engine write
        lock, right after :class:`WriteEvent` dispatch), so listeners
        see gap-free LSNs in LSN order."""
        self._record_listeners.append(fn)

    def remove_record_listener(self, fn) -> None:
        """Detach a listener added by :meth:`add_record_listener`."""
        try:
            self._record_listeners.remove(fn)
        except ValueError:
            pass

    def commit(self) -> int:
        """Group-commit: make every logged write durable; returns the LSN.

        One fsync per call regardless of how many writes accumulated —
        callers that batch writes (the serving layer) acknowledge them
        all with this single call.
        """
        return self.wal.commit()

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently logged write."""
        return self.wal.last_lsn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN guaranteed to survive a crash."""
        return self.wal.durable_lsn

    @property
    def needs_commit(self) -> bool:
        """Whether logged writes are still awaiting their group fsync."""
        return self.wal.durable_lsn < self.wal.last_lsn

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, *, resume: bool = True) -> dict:
        """Flush every shard to a new segment generation, incrementally.

        Safe under live traffic: writers are only ever blocked for one
        shard's in-memory snapshot (plus WAL rotation at the start),
        never for serialisation, compression or fsync.  Publishing the
        manifest is the commit point — a crash anywhere before it leaves
        the previous generation authoritative, and the WAL tail covers
        everything since.  Returns the published manifest.

        ``resume=False`` leaves structural maintenance deferred on
        success; the caller must invoke
        :meth:`ShardedIndex.resume_maintenance` itself.  The asyncio
        server uses this to run the flush off the event loop but the
        catch-up splits *on* it, ordered with its lock-free readers.
        A failing pass always resumes before raising.
        """
        with self._checkpoint_lock:
            if self._closed:
                raise DurabilityError("the durability manager is closed")
            generation = max(self.generation, self.wal.generation) + 1
            manifest = _publish_generation(
                self.index, self.root, generation,
                wal=self.wal, sync=self.sync,
                index_config=self.index_config, resume=resume,
            )
            self.generation = generation
            self.manifest = manifest
            # the new manifest is live: prune what no consumer can still
            # need — the retention floor keeps `keep_generations` extra
            # WAL generations for briefly-disconnected followers, and
            # pinned generations (followers mid-sync) hold both their
            # segments and their WAL tail on disk
            with self._pin_lock:
                pins = list(self._pins.values())
            wal_floor = min([generation - self.keep_generations] + pins)
            seg_floor = min([generation] + pins)
            self.wal.drop_generations_below(max(wal_floor, 0))
            _drop_stale_segments(self.root, max(seg_floor, 0))
            return manifest

    def pin_current(self) -> tuple[int, dict]:
        """Pin the published generation against GC; ``(token, manifest)``.

        While pinned, :meth:`checkpoint` keeps every segment and WAL
        generation at or above the pinned one on disk, so a replication
        follower can finish fetching that generation (and the WAL tail
        past its flushed LSNs) while fresh checkpoints rotate by.
        Release with :meth:`unpin` — the replication server unpins on
        fetch completion and on follower disconnect.
        """
        with self._pin_lock:
            if self.manifest is None:
                raise DurabilityError(
                    "no published manifest to pin (checkpoint first)"
                )
            token = self._next_pin
            self._next_pin += 1
            self._pins[token] = self.generation
            return token, self.manifest

    def unpin(self, token: int) -> None:
        """Release a :meth:`pin_current` pin (idempotent)."""
        with self._pin_lock:
            self._pins.pop(token, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Final group commit, detach from the engine, release the WAL.

        Close is *not* a checkpoint: the WAL tail alone makes the last
        acknowledged state recoverable, which is the contract.  Safe to
        call twice.
        """
        if self._closed:
            return
        self._closed = True
        if self._listening:
            self.index.remove_write_listener(self._on_write)
            self._listening = False
        self.wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> dict:
        """One-line health dict: generation, LSNs, replay counters."""
        return {
            "root": str(self.root),
            "generation": self.generation,
            "sync": self.sync,
            "last_lsn": self.last_lsn,
            "durable_lsn": self.durable_lsn,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "keep_generations": self.keep_generations,
        }

    # ------------------------------------------------------------------
    # recovery internals
    # ------------------------------------------------------------------
    @staticmethod
    def _engine_kwargs(manifest: dict) -> dict:
        auto_tune: object = False
        if manifest.get("auto_tune") is not None:
            from .autotune import AutoTuneConfig

            auto_tune = AutoTuneConfig.from_dict(manifest["auto_tune"])
        return {
            "name": manifest["name"],
            "config": _config_from_dict(manifest["config"]),
            "backend": manifest["backend"],
            "auto_tune": auto_tune,
        }

    @classmethod
    def _build_engine(
        cls, manifest: dict, shards: list, lengths: list[int],
        key_dtype: np.dtype,
    ) -> ShardedIndex | None:
        """Checkpoint segments -> live engine (None if all empty)."""
        if sum(lengths) == 0:
            return None
        offsets = np.zeros(len(shards) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        live = [s.keys() for s in shards if s is not None]
        keys = np.concatenate(live) if live else np.empty(0, key_dtype)
        index = ShardedIndex(
            shards, offsets, keys, **cls._engine_kwargs(manifest)
        )
        index._target_shard_keys = int(manifest["target_shard_keys"])
        index.num_splits = int(manifest["num_splits"])
        index.num_merges = int(manifest["num_merges"])
        return index

    @classmethod
    def _seed_engine(
        cls, manifest: dict, key, key_dtype: np.dtype,
    ) -> ShardedIndex:
        """An engine reborn from one replayed insert (checkpoint was
        empty — every key had been deleted when the pass ran)."""
        kwargs = cls._engine_kwargs(manifest)
        config = kwargs.pop("config")
        index = ShardedIndex.build(
            np.asarray([key], dtype=key_dtype), 1,
            model=config.model, layer=config.layer,
            layer_partitions=config.layer_partitions,
            payload_bytes=config.payload_bytes,
            density=config.density,
            merge_threshold=config.merge_threshold,
            **kwargs,
        )
        index._target_shard_keys = int(manifest["target_shard_keys"])
        index.num_splits = int(manifest["num_splits"])
        index.num_merges = int(manifest["num_merges"])
        return index


__all__ = [
    "DURABLE_FORMAT_NAME",
    "DURABLE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "DurabilityError",
    "DurabilityManager",
    "RecoveredState",
    "apply_record",
    "check_manifest",
    "is_durable_dir",
    "load_manifest",
    "load_segment",
    "replay_directory",
    "save_snapshot",
]
