"""Runtime sanitizers: execution-time checks of the static contracts.

The RPR2xx/RPR3xx lint rules prove lock and durability discipline
*lexically*; the sanitizers here verify the same contracts *dynamically*
while the ordinary test suite runs:

- :class:`LockSanitizer` asserts, on every :class:`WriteEvent`, that
  the emitting thread actually holds ``ShardedIndex._write_lock`` — the
  engine's one lock (one writer at a time, structural or not).
- :class:`DurabilitySanitizer` wraps the WAL append/commit points and
  asserts apply-order = LSN-order: each content-changing event must be
  logged by exactly one append, LSNs must be gap-free, the logged
  record must match the event, and group commits must be monotone.

Enable them for a test run with ``REPRO_SANITIZE=1`` (see
``tests/conftest.py``, which calls :func:`install_global`); violations
raise :class:`SanitizerError` at the faulty operation, not at teardown.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "SanitizerError",
    "LockSanitizer",
    "DurabilitySanitizer",
    "sanitizers_enabled",
    "install_global",
]


class SanitizerError(AssertionError):
    """An engine invariant was observed broken at runtime."""


def sanitizers_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for runtime invariant checking."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class LockSanitizer:
    """Asserts every ``WriteEvent`` is emitted under the engine write lock.

    The engine's write-concurrency model is one writer at a time behind
    ``ShardedIndex._write_lock``; an event emitted by a thread that does
    not hold it means a mutation (or its listener chain — WAL append,
    cache invalidation) escaped the serialisation.
    """

    def __init__(self, index) -> None:
        self.index = index
        self.violations = 0

    @classmethod
    def install(cls, index) -> "LockSanitizer":
        """Start checking every event against the engine lock's owner."""
        san = cls(index)
        index.add_write_listener(san._on_event)
        return san

    def uninstall(self) -> None:
        """Stop checking."""
        self.index.remove_write_listener(self._on_event)

    def _on_event(self, event) -> None:
        # RLock._is_owned is the ownership query threading.Condition
        # itself relies on
        if not self.index._write_lock._is_owned():
            self.violations += 1
            raise SanitizerError(
                f"WriteEvent({event.kind!r}, shard={event.shard}) emitted "
                "without holding ShardedIndex._write_lock; mutations and "
                "their listener notifications must run under the engine "
                "write lock (RPR201/RPR202 runtime check)")


class DurabilitySanitizer:
    """Asserts WAL apply-order = LSN-order and commit monotonicity."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self._expected_next = manager.wal.next_lsn
        self._last_append: tuple | None = None
        self._appends_since_event = 0
        self._last_commit = manager.wal.durable_lsn
        self._commit_mu = threading.Lock()
        self._orig_append = None
        self._orig_commit = None

    @classmethod
    def install(cls, manager) -> "DurabilitySanitizer":
        """Wrap the manager's WAL append/commit and start checking."""
        san = cls(manager)
        wal = manager.wal
        san._orig_append = wal.append
        san._orig_commit = wal.commit

        def append(op, shard, key):
            lsn = san._orig_append(op, shard, key)
            if lsn != san._expected_next:
                raise SanitizerError(
                    f"WAL append produced LSN {lsn}, expected "
                    f"{san._expected_next}: the LSN sequence has a gap, "
                    "so recovery would replay writes out of apply order")
            san._expected_next = lsn + 1
            san._last_append = (op, shard, key, lsn)
            san._appends_since_event += 1
            return lsn

        def commit():
            with san._commit_mu:  # serialise the monotonicity check
                head = san._orig_commit()
                if head < san._last_commit:
                    raise SanitizerError(
                        f"WAL commit went backwards: durable LSN {head} "
                        f"after {san._last_commit}")
                san._last_commit = head
                return head

        wal.append = append
        wal.commit = commit
        manager.index.add_write_listener(san._on_event)
        return san

    def uninstall(self) -> None:
        """Remove the listener and unwrap the WAL methods."""
        try:
            self.manager.index.remove_write_listener(self._on_event)
        except ValueError:
            pass
        if self._orig_append is not None:
            self.manager.wal.append = self._orig_append
        if self._orig_commit is not None:
            self.manager.wal.commit = self._orig_commit

    def _on_event(self, event) -> None:
        # mirror DurabilityManager._on_write's gating exactly
        if event.kind not in ("insert", "delete"):
            return
        if self.manager._closed or not self.manager._listening:
            return
        from ..engine.wal import OP_DELETE, OP_INSERT
        taken, self._appends_since_event = self._appends_since_event, 0
        if taken != 1:
            raise SanitizerError(
                f"{taken} WAL appends observed for one "
                f"WriteEvent({event.kind!r}): apply order and LSN order "
                "have diverged (every content-changing write must be "
                "logged exactly once, under the engine write lock)")
        op, shard, key, lsn = self._last_append
        want_op = OP_INSERT if event.kind == "insert" else OP_DELETE
        if op != want_op or shard != event.shard:
            raise SanitizerError(
                f"WAL tail record (op={op}, shard={shard}, lsn={lsn}) does "
                f"not match WriteEvent({event.kind!r}, "
                f"shard={event.shard}): recovery would replay a different "
                "write than the one applied")


def install_global() -> None:
    """Patch the engine so every new index/manager gets sanitizers.

    Idempotent.  Used by ``tests/conftest.py`` when ``REPRO_SANITIZE=1``
    so the whole suite runs with runtime invariant checking on.
    """
    from ..engine.durability import DurabilityManager
    from ..engine.sharded import ShardedIndex

    if getattr(ShardedIndex, "_repro_sanitized", False):
        return

    orig_init = ShardedIndex.__init__
    orig_attach = DurabilityManager._attach

    def sanitized_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        self._lock_sanitizer = LockSanitizer.install(self)

    def sanitized_attach(self):
        orig_attach(self)
        if getattr(self, "_durability_sanitizer", None) is None:
            self._durability_sanitizer = DurabilitySanitizer.install(self)

    ShardedIndex.__init__ = sanitized_init
    ShardedIndex._repro_sanitized = True
    DurabilityManager._attach = sanitized_attach
