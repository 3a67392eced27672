"""Lint fixture: RPR2xx lock-discipline violations.

This file is never imported, only parsed.
"""

import threading

from repro.engine.sharded import WriteEvent


class Engine:
    def __init__(self):
        self._write_lock = threading.RLock()
        self._count = 0
        self._dirty = False

    def insert(self, key):
        with self._write_lock:
            self._count += 1
            self._dirty = True
            self._emit(WriteEvent("insert", 0, key))

    def _emit(self, event):
        pass

    def refresh_cache(self):
        self._dirty = False  # expect: RPR201

    def notify_unlocked(self, key):
        return WriteEvent("insert", 0, key)  # expect: RPR202


def make_event(key):
    return WriteEvent("insert", 0, key)  # expect: RPR202

