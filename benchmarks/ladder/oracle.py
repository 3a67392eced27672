"""Sorted-array oracle with write versions.

Every answer the benchmark receives is compared with ``np.searchsorted``
on a mirror of the key set.  The mirror is the base key array plus the
ordered log of writes the benchmark issued; *version* ``v`` is the state
after the first ``v`` writes.  A read that overlapped writes is accepted
iff it equals the oracle at some version between the number of writes
acknowledged when it was submitted and the number started when its
reply arrived — the only states the system may legally have shown it.
"""

from __future__ import annotations

import numpy as np

INSERT, DELETE = 0, 1


class Mirror:
    """Base keys + write log; answers lower-bound ranks at any version."""

    def __init__(self, keys: np.ndarray) -> None:
        self.base = keys
        self.ops: list[int] = []
        self.keys: list[int] = []

    @property
    def version(self) -> int:
        return len(self.ops)

    def record(self, op: int, key: int) -> None:
        self.ops.append(op)
        self.keys.append(key)

    def _deltas(self, version: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted inserted / deleted keys among the first ``version`` writes."""
        ops = np.asarray(self.ops[:version], dtype=np.int8)
        keys = np.asarray(self.keys[:version], dtype=self.base.dtype)
        return np.sort(keys[ops == INSERT]), np.sort(keys[ops == DELETE])

    def drift(self, queries: np.ndarray, version: int) -> np.ndarray:
        """How far the first ``version`` writes moved each query's rank."""
        ins, dels = self._deltas(version)
        return (np.searchsorted(ins, queries, side="left")
                - np.searchsorted(dels, queries, side="left"))

    def rank(self, queries: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """Lower-bound rank of each query at its own version."""
        out = np.searchsorted(self.base, queries, side="left").astype(np.int64)
        for v in np.unique(versions):
            lanes = versions == v
            out[lanes] += self.drift(queries[lanes], int(v))
        return out

    def keys_at(self, version: int) -> np.ndarray:
        """The full sorted key array after the first ``version`` writes."""
        ins, dels = self._deltas(version)
        keys = self.base
        if len(dels):
            # one occurrence per delete: first occurrence, then the next
            # one for a repeated deleted value
            pos = np.searchsorted(keys, dels, side="left")
            pos += np.arange(len(dels)) - np.searchsorted(dels, dels, "left")
            keys = np.delete(keys, pos)
        if len(ins):
            keys = np.insert(keys, np.searchsorted(keys, ins, "left"), ins)
        return keys


def count_wrong(
    mirror: Mirror,
    is_range: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    answers: np.ndarray,
    v_first: np.ndarray,
    v_last: np.ndarray,
) -> int:
    """Reads whose answer matches the oracle at no version they may have seen.

    ``answers`` holds a rank for a lookup and a cardinality for a range;
    ``-1`` marks a request that raised or timed out (always wrong).
    """
    ok = np.zeros(len(answers), dtype=bool)
    for step in range(int((v_last - v_first).max(initial=0)) + 1):
        v = np.minimum(v_first + step, v_last)
        expect = mirror.rank(lo, v)
        if is_range.any():
            r = is_range
            expect[r] = np.maximum(mirror.rank(hi[r], v[r]) - expect[r], 0)
        ok |= answers == expect
    return int((~ok).sum())
