"""Concurrent-writer safety for ShardedIndex (ISSUE 3 satellite).

The ROADMAP flagged updates as single-threaded; the engine now carries
an explicit write lock serialising ``insert``/``delete``/``refresh``.
These tests hammer the index from concurrent threads and from
concurrent asyncio writers through the serving layer, then assert the
final key sequence and every lookup against ``np.searchsorted`` — no
silent corruption allowed.  The write-event listener contract
(span/key payloads, registration) is covered here too, since the
events fire under the same lock.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import BatchExecutor, ShardedIndex, WriteEvent
from repro.serve import IndexServer


def build_index(rng, n=2000, backend="gapped", shards=4):
    keys = np.sort(rng.integers(0, 1 << 32, n, dtype=np.uint64))
    return keys, ShardedIndex.build(keys, shards, backend=backend)


def assert_matches_oracle(index: ShardedIndex, expected: np.ndarray) -> None:
    assert len(index) == len(expected)
    assert np.array_equal(index.keys, expected)
    qrng = np.random.default_rng(0)
    qs = np.concatenate([
        qrng.choice(expected, 200),
        qrng.integers(0, 1 << 33, 100, dtype=np.uint64),
    ])
    got = BatchExecutor(index).lookup_batch(qs)
    assert np.array_equal(got, np.searchsorted(expected, qs, side="left"))


@pytest.mark.parametrize("backend", ["static", "gapped", "fenwick"])
def test_concurrent_threaded_inserts_serialize(rng, backend):
    keys, index = build_index(rng, backend=backend)
    per_thread = 60
    value_sets = [
        rng.integers(0, 1 << 32, per_thread, dtype=np.uint64)
        for _ in range(6)
    ]
    errors: list[Exception] = []

    def writer(values):
        try:
            for v in values:
                index.insert(v)
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(vs,)) for vs in value_sets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    expected = np.sort(np.concatenate([keys] + value_sets))
    assert_matches_oracle(index, expected)


def test_concurrent_mixed_writers_serialize(rng):
    keys, index = build_index(rng, backend="fenwick")
    inserts = rng.integers(0, 1 << 32, 120, dtype=np.uint64)
    # delete distinct pre-existing keys, disjoint across threads
    unique = np.unique(keys)
    victims = unique[rng.choice(len(unique), 120, replace=False)]
    errors: list[Exception] = []

    def run(fn, values):
        try:
            for v in values:
                fn(v)
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index.insert, inserts[:60])),
        threading.Thread(target=run, args=(index.insert, inserts[60:])),
        threading.Thread(target=run, args=(index.delete, victims[:60])),
        threading.Thread(target=run, args=(index.delete, victims[60:])),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    expected = keys.copy()
    for v in victims:
        expected = np.delete(expected, np.searchsorted(expected, v))
    expected = np.sort(np.concatenate([expected, inserts]))
    assert_matches_oracle(index, expected)


def test_write_lock_blocks_second_writer(rng):
    """The mutation path really does wait on the write lock."""
    keys, index = build_index(rng)
    index._write_lock.acquire()
    try:
        t = threading.Thread(target=index.insert, args=(np.uint64(123),))
        t.start()
        time.sleep(0.05)
        assert t.is_alive()  # parked on the lock, not corrupting state
    finally:
        index._write_lock.release()
    t.join(timeout=5)
    assert not t.is_alive()
    assert len(index) == len(keys) + 1


def test_concurrent_async_writers_through_server(rng):
    keys, index = build_index(rng, backend="gapped")
    values = rng.integers(0, 1 << 32, 200, dtype=np.uint64)

    async def scenario():
        async with IndexServer(index) as server:
            await asyncio.gather(*[server.insert(v) for v in values])
            # reads interleaved with nothing pending still agree
            q = keys[500]
            expected = np.sort(np.concatenate([keys, values]))
            assert await server.lookup(q) == int(
                np.searchsorted(expected, q, side="left")
            )
            return expected

    expected = asyncio.run(scenario())
    assert_matches_oracle(index, expected)


# ----------------------------------------------------------------------
# write-event contract
# ----------------------------------------------------------------------
def test_write_events_carry_key_and_span(rng):
    keys, index = build_index(rng, backend="static")
    events: list[WriteEvent] = []
    index.add_write_listener(events.append)

    v = np.uint64(keys[1000]) + np.uint64(1)
    s = index.insert(v)
    index.delete(v)
    index.refresh()
    assert [e.kind for e in events] == ["insert", "delete", "refresh"]
    for event in events[:2]:
        assert event.shard == s
        assert event.key == v
        lo, hi = event.span
        assert lo <= v and (hi is None or v <= hi)
        assert event.overlaps(v, v + np.uint64(1))
        assert not event.overlaps(np.uint64(0), lo)  # below the span
    assert events[2].span is None
    assert not events[2].overlaps(0, 1 << 40)

    index.remove_write_listener(events.append)
    index.insert(v)
    assert len(events) == 3  # detached listeners see nothing


def test_shard_span_partitions_the_key_domain(rng):
    keys, index = build_index(rng, shards=4)
    spans = [index.shard_span(s) for s in range(index.num_shards)]
    live = [sp for sp in spans if sp is not None]
    assert live[0][0] == keys[0]
    assert live[-1][1] is None
    for (lo, hi), (nxt_lo, _) in zip(live, live[1:]):
        assert hi == nxt_lo  # inclusive-upper meets the next shard's min
        assert lo < nxt_lo
    # a drained shard reports no span
    tiny = ShardedIndex.build(np.asarray([1, 2], dtype=np.uint64), 2)
    tiny.delete(np.uint64(1))
    assert tiny.shard_span(0) is None


# ----------------------------------------------------------------------
# runtime lock sanitizer (repro.analysis.sanitizers)
# ----------------------------------------------------------------------
class TestLockSanitizer:
    """The RPR2xx invariants, enforced at runtime instead of parse time."""

    def test_clean_under_concurrent_writers(self, rng):
        from repro.analysis import LockSanitizer

        keys, index = build_index(rng)
        san = LockSanitizer.install(index)
        try:
            fresh = np.setdiff1d(
                rng.integers(0, 1 << 32, 800, dtype=np.uint64), keys)

            def writer(chunk):
                for k in chunk:
                    index.insert(k)

            threads = [threading.Thread(target=writer, args=(c,))
                       for c in np.array_split(fresh, 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert san.violations == 0
            assert_matches_oracle(
                index, np.sort(np.concatenate([keys, fresh])))
        finally:
            san.uninstall()

    def test_event_outside_lock_raises(self, rng):
        from repro.analysis import LockSanitizer, SanitizerError

        _, index = build_index(rng, n=64)
        # under REPRO_SANITIZE=1 install_global() already attached a
        # sanitizer whose listener would fire (and raise) before ours;
        # detach it so the violation counter below is deterministic
        global_san = getattr(index, "_lock_sanitizer", None)
        if global_san is not None:
            global_san.uninstall()
        san = LockSanitizer.install(index)
        try:
            with pytest.raises(SanitizerError, match="without holding"):
                index._notify(WriteEvent("insert", 0, np.uint64(1)))
            assert san.violations == 1
            # a real insert (which holds the lock) stays clean
            index.insert(np.uint64(3))
        finally:
            san.uninstall()
        index.insert(np.uint64(5))

    def test_keys_property_locks_against_writers(self, rng):
        # regression for the race fixed in this PR: ShardedIndex.keys
        # concatenated shard arrays without the write lock, so a reader
        # could interleave with a shard split mid-copy
        from repro.analysis import LockSanitizer

        keys, index = build_index(rng, n=1000)
        san = LockSanitizer.install(index)
        try:
            # re-entrant read while the lock is already held (RLock)
            with index._write_lock:
                assert len(index.keys) == len(keys)

            stop = threading.Event()
            errors = []

            def reader():
                while not stop.is_set():
                    snap = index.keys
                    if not np.all(snap[:-1] <= snap[1:]):
                        errors.append("unsorted snapshot")

            t = threading.Thread(target=reader)
            t.start()
            try:
                for k in rng.integers(0, 1 << 32, 500, dtype=np.uint64):
                    index.insert(k)
            finally:
                stop.set()
                t.join()
            assert not errors and san.violations == 0
        finally:
            san.uninstall()


# ----------------------------------------------------------------------
# one writer at a time: a writer inside a shard holds THE engine lock
# ----------------------------------------------------------------------
def _fresh_key_in_shard(index, keys, rng, shard):
    """A key routed to ``shard`` that is not already stored."""
    for _ in range(20_000):
        k = np.uint64(rng.integers(0, 1 << 32, dtype=np.uint64))
        if index.route(k) == shard and not np.any(keys == k):
            return k
    raise AssertionError(f"no fresh key found for shard {shard}")


class _ParkedInsert:
    """Park a writer *inside* ``shard.insert`` (engine write lock held)
    so tests can probe what the rest of the engine may do meanwhile."""

    def __init__(self, index, shard_id, key):
        self.index = index
        self.shard = index.shards[shard_id]
        self.key = key
        self.entered = threading.Event()
        self.release = threading.Event()
        self.thread = threading.Thread(target=index.insert, args=(key,))

    def __enter__(self):
        orig = self.shard.insert

        def parked(key):
            self.entered.set()
            assert self.release.wait(timeout=10)
            return orig(key)

        self.shard.insert = parked
        self.thread.start()
        assert self.entered.wait(timeout=10)
        return self

    def __exit__(self, *exc):
        self.release.set()
        self.thread.join(timeout=10)
        del self.shard.insert  # restore the class method
        assert not self.thread.is_alive()


class TestPerShardLocking:
    """One engine lock: a writer anywhere serialises every other writer
    and all structural work."""

    def test_structural_work_waits_for_shared_writers(self, rng):
        # a writer parked inside one shard blocks structural work
        # (splits, merges, refreshes, checkpoints all take the same
        # lock) *and* every other writer, whatever shard it targets
        keys, index = build_index(rng, n=4000, shards=4)
        ka = _fresh_key_in_shard(index, keys, rng, 1)
        kb = _fresh_key_in_shard(index, keys, rng, 3)
        other = threading.Thread(target=index.insert, args=(kb,))
        with _ParkedInsert(index, 1, ka):
            assert not index._write_lock.acquire(timeout=0.2), (
                "the engine lock was granted while a writer was live"
            )
            other.start()
            other.join(timeout=0.2)
            assert other.is_alive(), (
                "a shard-3 insert ran beside a parked shard-1 insert"
            )
        other.join(timeout=10)
        assert not other.is_alive()
        # the parked writer has drained: the lock is available now
        assert index._write_lock.acquire(timeout=10)
        index._write_lock.release()
        assert_matches_oracle(
            index,
            np.sort(np.concatenate(
                [keys, np.asarray([ka, kb], np.uint64)])),
        )

    def test_cross_shard_split_serialises_with_shared_writer(self, rng):
        # a split-bound insert on another shard must wait out a parked
        # writer and still split correctly afterwards
        keys, index = build_index(rng, n=4000, shards=4)
        ka = _fresh_key_in_shard(index, keys, rng, 0)
        kc = _fresh_key_in_shard(index, keys, rng, 2)
        shards_before = index.num_shards
        with _ParkedInsert(index, 0, ka) as parked:
            # make any further insert split-due *after* A got parked
            index._target_shard_keys = 1
            done = threading.Event()

            def splitter():
                index.insert(kc)
                done.set()

            t = threading.Thread(target=splitter)
            t.start()
            time.sleep(0.1)
            assert not done.is_set(), (
                "a structural (split) insert ran while another writer "
                "held the engine lock"
            )
            assert parked.thread.is_alive()
        assert done.wait(timeout=10)
        t.join(timeout=10)
        assert index.num_shards > shards_before  # the split happened
        expected = np.sort(np.concatenate(
            [keys, np.asarray([ka, kc], dtype=np.uint64)]))
        assert_matches_oracle(index, expected)

    def test_hammer_per_shard_writers_with_sanitizer(self, rng):
        # more threads than cores, keys spread over every shard, with
        # the sanitizer auditing every emitted event's lock ownership
        from repro.analysis import LockSanitizer

        keys, index = build_index(rng, n=4000, shards=4)
        global_san = getattr(index, "_lock_sanitizer", None)
        if global_san is not None:
            global_san.uninstall()
        san = LockSanitizer.install(index)
        try:
            fresh = np.setdiff1d(
                rng.integers(0, 1 << 32, 600, dtype=np.uint64), keys)
            fresh = fresh[rng.permutation(len(fresh))]
            errors: list[Exception] = []

            def writer(chunk):
                try:
                    for k in chunk:
                        index.insert(k)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(c,))
                       for c in np.array_split(fresh, 6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert san.violations == 0
            assert_matches_oracle(
                index, np.sort(np.concatenate([keys, fresh])))
        finally:
            san.uninstall()
