"""Lint fixture: lock-disciplined code that must produce zero findings.

This file is never imported, only parsed.
"""

import threading

from repro.engine.sharded import WriteEvent


class Engine:
    def __init__(self):
        self._write_lock = threading.RLock()
        self._count = 0

    def insert(self, key):
        with self._write_lock:
            self._count += 1
            self._maybe_split()
            return WriteEvent("insert", 0, key)

    def _maybe_split(self):
        # private helper called only under the lock: locked-only, so its
        # own mutations of protected state are fine
        self._count += 0

    def snapshot(self):
        with self._write_lock:
            self._count += 0
            return self._count


def emit_locked(index, key):
    with index._write_lock:
        return WriteEvent("insert", 0, key)

