"""Snapshot directories: save → open is bit-identical, republishing is
atomic, and broken or hostile artifacts are rejected loudly.

A saved index is one checkpoint generation (``MANIFEST.json`` +
``segments/``, no WAL).  Round-trip properties run across all three
shard backends and both served model families, with writes applied
first so the segments carry pending deltas/tombstones; corruption,
version mismatch, not-an-index paths and manifests that point outside
the directory must raise :class:`IndexPersistError` (directory-level
problems its subclass :class:`DurabilityError`) with a clear message
instead of answering queries wrongly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import serialize
from repro.core.serialize import (
    FORMAT_VERSION,
    SERIALIZABLE_MODELS,
    IndexPersistError,
    model_from_state,
    model_to_state,
)
from repro.engine import BatchExecutor, ShardedIndex
from repro.engine.durability import (
    MANIFEST_NAME,
    DurabilityError,
    DurabilityManager,
    load_manifest,
    replay_directory,
    save_snapshot,
)
from helpers import PAPER_MODELS, queries_for, sorted_uint_arrays, tree_bytes

BACKENDS = ("static", "gapped", "fenwick")
FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def make_index(keys, backend, model="interpolation", num_shards=4, **kw):
    return ShardedIndex.build(
        keys, num_shards, model=model, backend=backend, name="persist",
        **kw,
    )


def load_snapshot(path):
    """The engine a snapshot directory reopens to."""
    return replay_directory(path).index


def apply_writes(index, rng, inserts=30, deletes=10):
    """Mutate so gapped/fenwick shards carry pending state."""
    for k in rng.integers(0, 1 << 44, inserts, dtype=np.uint64):
        index.insert(k)
    for k in rng.choice(index.keys, min(deletes, len(index) - 1),
                        replace=False):
        index.delete(k)


def assert_equivalent(original, loaded, rng):
    """Loaded engine answers every probe class like the original."""
    assert len(loaded) == len(original)
    assert np.array_equal(loaded.offsets, original.offsets)
    assert np.array_equal(loaded.keys, original.keys)
    queries = np.concatenate([
        queries_for(original.keys, count=64),
        rng.integers(0, 1 << 45, 256, dtype=np.uint64),
    ])
    got = BatchExecutor(loaded).lookup_batch(queries)
    want = BatchExecutor(original).lookup_batch(queries)
    assert np.array_equal(got, want)
    for q in queries[:32]:
        assert loaded.lookup(q) == original.lookup(q)


def small_snapshot(path, backend="static", n=2_000, seed=1):
    keys = np.sort(np.random.default_rng(seed).integers(
        0, 1 << 40, n, dtype=np.uint64))
    index = make_index(keys, backend)
    save_snapshot(index, path)
    return index


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_round_trip_with_pending_writes(tmp_path, backend):
    rng = np.random.default_rng(7)
    keys = np.sort(rng.integers(0, 1 << 44, 20_000, dtype=np.uint64))
    index = make_index(keys, backend)
    apply_writes(index, rng)
    path = tmp_path / "engine.npz"
    manifest = save_snapshot(index, path)
    assert manifest["backend"] == backend
    assert manifest["generation"] == 1 and manifest["sync"] is None
    # one artifact layout: a manifest and one segment per shard, no WAL
    assert sorted(tree_bytes(path)) == [MANIFEST_NAME] + [
        f"segments/g0000000001-s{s:04d}.npz" for s in range(index.num_shards)
    ]
    loaded = load_snapshot(path)
    assert loaded.build_info()["source"] == "loaded"
    assert loaded.pending_updates() == index.pending_updates()
    assert_equivalent(index, loaded, rng)


@pytest.mark.parametrize("model", list(PAPER_MODELS))
def test_round_trip_every_model_family(tmp_path, model):
    rng = np.random.default_rng(11)
    keys = np.sort(rng.integers(0, 1 << 40, 6_000, dtype=np.uint64))
    if model not in SERIALIZABLE_MODELS:
        # only the engine's families reach a snapshot at all
        with pytest.raises(ValueError, match=repr(model)):
            make_index(keys, "static", model=model, num_shards=3)
        return
    index = make_index(keys, "static", model=model, num_shards=3)
    path = tmp_path / "engine.npz"
    save_snapshot(index, path)
    assert_equivalent(index, load_snapshot(path), rng)


@pytest.mark.parametrize("model", list(PAPER_MODELS))
def test_model_state_codec_is_bit_identical(model):
    rng = np.random.default_rng(3)
    keys = np.sort(rng.integers(0, 1 << 40, 5_000, dtype=np.uint64))
    keys[100:140] = keys[100]  # duplicate run
    fitted = PAPER_MODELS[model](keys)
    if model not in SERIALIZABLE_MODELS:
        # the paper harness's other families have no codec either way
        with pytest.raises(TypeError, match=type(fitted).__name__):
            model_to_state(fitted)
        with pytest.raises(ValueError, match=repr(model)):
            model_from_state({"kind": model}, {})
        return
    restored = model_from_state(*model_to_state(fitted))
    probes = np.concatenate([
        keys[::37], keys[::41] + 1, np.asarray([0, 1 << 41], dtype=np.uint64)
    ])
    assert np.array_equal(
        fitted.predict_pos_batch(probes), restored.predict_pos_batch(probes)
    )
    for q in probes[:16]:
        assert fitted.predict_pos(q) == restored.predict_pos(q)
    assert restored.num_keys == fitted.num_keys
    assert restored.size_bytes() == fitted.size_bytes()


@settings(max_examples=25, deadline=None)
@given(keys=sorted_uint_arrays(min_size=2, max_size=300),
       backend=st.sampled_from(BACKENDS))
def test_round_trip_property(tmp_path_factory, keys, backend):
    """Any sorted uint64 array round-trips through save/open exactly."""
    path = tmp_path_factory.mktemp("persist") / "engine.npz"
    index = ShardedIndex.build(keys, 3, backend=backend, name="prop")
    save_snapshot(index, path)
    queries = queries_for(keys, count=32)
    assert np.array_equal(
        BatchExecutor(load_snapshot(path)).lookup_batch(queries),
        np.searchsorted(keys, queries, side="left"),
    )


def test_round_trip_after_splits_and_merges(tmp_path):
    rng = np.random.default_rng(5)
    keys = np.sort(rng.integers(0, 1 << 30, 4_000, dtype=np.uint64))
    index = make_index(keys, "gapped", num_shards=4)
    for k in rng.integers(0, 1 << 30, 6_000, dtype=np.uint64):
        index.insert(k)  # forces at least one run-aligned split
    assert index.num_splits >= 1
    path = tmp_path / "engine.npz"
    save_snapshot(index, path)
    loaded = load_snapshot(path)
    assert loaded.num_splits == index.num_splits
    assert loaded.num_shards == index.num_shards
    assert loaded._target_shard_keys == index._target_shard_keys
    assert_equivalent(index, loaded, rng)
    # the loaded engine keeps maintaining itself correctly
    for k in rng.integers(0, 1 << 30, 500, dtype=np.uint64):
        loaded.insert(k)
        index.insert(k)
    assert np.array_equal(loaded.keys, index.keys)


def test_round_trip_autotuned_decisions_and_counters(tmp_path):
    rng = np.random.default_rng(9)
    keys = np.sort(rng.integers(0, 1 << 40, 12_000, dtype=np.uint64))
    index = make_index(keys, "gapped", num_shards=4, auto_tune=True)
    BatchExecutor(index).lookup_batch(rng.choice(keys, 2_000))
    path = tmp_path / "engine.npz"
    manifest = save_snapshot(index, path)
    assert manifest["auto_tune"] is not None
    loaded = load_snapshot(path)
    assert loaded.tuner is not None
    assert loaded.tuner.config == index.tuner.config
    live = [int(s) for s in index._nonempty]
    assert [loaded.shards[s].decision_label for s in live] == \
        [index.shards[s].decision_label for s in live]
    # observed workload counters survive the round trip (retune evidence)
    assert [loaded.shards[s].stats.reads for s in live] == \
        [index.shards[s].stats.reads for s in live]
    loaded.retune()  # the restored tuner is actually usable


def test_open_insert_close_leaves_the_snapshot_byte_identical(tmp_path):
    """A snapshot is never written to by a reader: no WAL appears, no
    generation moves, and a second process may hold it open meanwhile."""
    path = tmp_path / "snap"
    small_snapshot(path, "gapped")
    before = tree_bytes(path)
    with repro.open(path) as first, repro.open(path) as second:
        assert not first.durable and first.source == "loaded"
        first.insert(np.uint64(123))
        first.delete(first.keys[5])
        assert len(second) == len(first)  # +1 -1, and independent of it
    assert tree_bytes(path) == before


def test_resave_publishes_the_next_generation_and_drops_the_old(tmp_path):
    path = tmp_path / "snap"
    index = small_snapshot(path, "gapped")
    index.insert(np.uint64(77))
    assert save_snapshot(index, path)["generation"] == 2
    index.insert(np.uint64(78))
    assert save_snapshot(index, path)["generation"] == 3
    assert sorted(p.name for p in (path / "segments").iterdir()) == [
        f"g0000000003-s{s:04d}.npz" for s in range(index.num_shards)]
    assert np.array_equal(load_snapshot(path).keys, index.keys)


def test_v2_durable_directory_from_the_parent_commit_still_recovers(tmp_path):
    """``tests/fixtures/durable_v2`` was written by the commit before
    snapshots became directories (checkpoint generation 2 + a WAL tail
    of 25 records): same layout version, so it must reopen as is."""
    db = tmp_path / "db"
    shutil.copytree(FIXTURES / "durable_v2", db)
    expected = json.loads((db / "EXPECTED_KEYS.json").read_text())
    with repro.open(db) as index:
        assert index.durable and index.source == "recovered"
        assert index.durability.replayed == 25
        assert index.keys.tolist() == expected
        index.insert(np.uint64(1))
        index.checkpoint()
    with repro.open(db) as index:
        assert index.keys.tolist() == [1] + expected


# ----------------------------------------------------------------------
# rejection: corruption, versions, non-index paths
# ----------------------------------------------------------------------
def _resave_tampered(path, mutate):
    """Rewrite a segment with ``mutate(payload_dict)`` applied, keeping
    the stored (now wrong, unless mutate fixes it) checksum."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {name: archive[name] for name in archive.files}
    mutate(payload)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def _first_segment(path):
    return sorted((path / "segments").iterdir())[0]


def test_corrupted_array_fails_checksum(tmp_path):
    path = tmp_path / "snap"
    small_snapshot(path)

    def flip(payload):
        arr = payload["keys"].copy()
        arr[0] += 1
        payload["keys"] = arr

    _resave_tampered(_first_segment(path), flip)
    with pytest.raises(IndexPersistError, match="checksum"):
        repro.open(path)


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "snap"
    small_snapshot(path)
    segment = _first_segment(path)
    segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 2])
    with pytest.raises(IndexPersistError, match="not a readable"):
        repro.open(path)


def test_missing_segment_is_rejected(tmp_path):
    path = tmp_path / "snap"
    small_snapshot(path)
    _first_segment(path).unlink()
    with pytest.raises(IndexPersistError, match="not a readable"):
        repro.open(path)


def test_newer_format_version_is_rejected(tmp_path):
    path = tmp_path / "snap"
    small_snapshot(path)

    def bump(payload):
        manifest = json.loads(str(payload["manifest"]))
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_json = json.dumps(manifest, sort_keys=True)
        payload["manifest"] = np.asarray(manifest_json)
        # keep the checksum consistent so the *version* check fires
        arrays = {k: v for k, v in payload.items()
                  if k not in ("manifest", "checksum")}
        payload["checksum"] = np.asarray(
            serialize._checksum(manifest_json, arrays))

    _resave_tampered(_first_segment(path), bump)
    with pytest.raises(IndexPersistError, match="format version"):
        repro.open(path)


def test_non_index_files_are_rejected(tmp_path):
    path = tmp_path / "snap"
    small_snapshot(path)
    np.savez(_first_segment(path), data=np.arange(10))  # a foreign .npz
    with pytest.raises(IndexPersistError,
                       match="not a readable repro-shard-segment"):
        repro.open(path)
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"definitely not a zip archive")
    with pytest.raises(DurabilityError, match="is a file"):
        repro.open(garbage)
    with pytest.raises(DurabilityError, match="no MANIFEST.json"):
        repro.open(tmp_path / "missing.npz")
    (tmp_path / "plain").mkdir()
    with pytest.raises(DurabilityError, match="no MANIFEST.json"):
        repro.open(tmp_path / "plain")


def test_old_whole_engine_archive_is_refused_by_name(tmp_path):
    """``engine_archive_v1.npz`` is a real ``repro-sharded-index`` file
    from the parent commit: never misread, and never overwritten."""
    old = tmp_path / "index.npz"
    shutil.copy(FIXTURES / "engine_archive_v1.npz", old)
    before = old.read_bytes()
    for attempt in (
        lambda: repro.open(old),
        lambda: small_snapshot(old),
    ):
        with pytest.raises(DurabilityError, match="older releases") as exc:
            attempt()
        assert str(old) in str(exc.value) and "rebuild" in str(exc.value)
    assert old.read_bytes() == before


def test_save_into_a_live_durable_directory_is_refused_by_name(tmp_path):
    db = tmp_path / "db"
    keys = np.arange(500, dtype=np.uint64) * 3
    with DurabilityManager.create(make_index(keys, "gapped"), db):
        before = tree_bytes(db)
        with pytest.raises(DurabilityError, match="durable directory"):
            small_snapshot(db)
        assert tree_bytes(db) == before
    # and the reverse: a snapshot has no WAL for a manager to resume
    snap = tmp_path / "snap"
    small_snapshot(snap)
    with pytest.raises(DurabilityError, match="is a snapshot"):
        DurabilityManager.recover(snap)
    assert not (snap / "wal").exists()


def test_custom_model_callable_is_rejected_at_save(tmp_path):
    """A custom model callable never reaches a snapshot: the engine
    refuses it when the index is built, so nothing can be saved."""
    from repro.models.interpolation import InterpolationModel

    keys = np.arange(1_000, dtype=np.uint64) * 7
    with pytest.raises(ValueError, match="<lambda>.* is not served"):
        ShardedIndex.build(
            keys, 2, model=lambda ks: InterpolationModel(ks), name="custom"
        )
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# hostile manifests: names are paths, slots are claims
# ----------------------------------------------------------------------
def _edit_manifest(path, edit):
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("name", [
    "../outside/g0000000001-s0000.npz",
    "segments/../../outside/g0000000001-s0000.npz",
    "{abs}/g0000000001-s0000.npz",
    "segments/g0000000001-s0001.npz",      # another slot's segment
    "segments/g0000000007-s0000.npz",      # another generation's
])
def test_manifest_segment_names_cannot_leave_their_slot(tmp_path, name):
    path = tmp_path / "snap"
    small_snapshot(path)
    outside = tmp_path / "outside"
    outside.mkdir()
    # the target exists and is a healthy segment: only the name is wrong
    shutil.copy(_first_segment(path), outside / "g0000000001-s0000.npz")
    name = name.format(abs=outside)

    def point_elsewhere(manifest):
        manifest["segments"][0] = name

    _edit_manifest(path, point_elsewhere)
    with pytest.raises(DurabilityError, match="segment paths never leave"):
        repro.open(path)
    with pytest.raises(DurabilityError, match="segment paths never leave"):
        load_manifest(path)


def test_swapped_and_stale_segments_are_refused(tmp_path):
    """A segment of another shard, or of another generation, copied over
    the right name passes its checksum — and is still not the state the
    manifest published."""
    path = tmp_path / "snap"
    index = small_snapshot(path, "gapped")
    s0, s1 = sorted((path / "segments").iterdir())[:2]
    stale = s0.read_bytes()
    s0.write_bytes(s1.read_bytes())
    with pytest.raises(DurabilityError, match="holds shard 1 of generation 1"):
        repro.open(path)

    save_snapshot(index, path)  # generation 2 replaces the damage
    (path / "segments" / "g0000000002-s0000.npz").write_bytes(stale)
    with pytest.raises(DurabilityError, match="holds shard 0 of generation 1"):
        repro.open(path)


# ----------------------------------------------------------------------
# crash-safety
# ----------------------------------------------------------------------
def test_open_leaves_no_open_handle(tmp_path):
    """``read_archive`` must context-manage the npz archive: a leaked
    handle keeps the file's bytes pinned and, on some platforms, blocks
    the unlink of the next save's garbage collection."""
    path = tmp_path / "handle.npz"
    index = small_snapshot(path, "gapped", n=500)
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():  # non-Linux: skip the direct check
        pytest.skip("requires /proc/self/fd")

    def fds_under(root):
        hits = []
        for entry in fd_dir.iterdir():
            try:
                target = os.readlink(entry)
            except OSError:
                continue
            if target.startswith(str(root.resolve())):
                hits.append(target)
        return hits

    loaded = load_snapshot(path)
    assert fds_under(path) == []  # closed before the open returned
    del loaded
    save_snapshot(index, path)  # and the lock descriptor is released too
    assert fds_under(path) == []


@pytest.mark.parametrize("fail_at", [0, 2, "manifest"])
def test_failed_save_keeps_old_generation_and_cleans_tmp(
        tmp_path, monkeypatch, fail_at):
    """A save that dies at any segment, or at the manifest, must leave
    the previous generation opening bit-identically and no ``.tmp``
    debris behind."""
    path = tmp_path / "crash.npz"
    index = small_snapshot(path, "gapped", n=500)
    before = tree_bytes(path)
    reference = load_snapshot(path)
    index.insert(np.uint64(9))

    calls = {"n": 0}
    real_fdopen = os.fdopen

    def failing_fdopen(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        calls["n"] += 1
        # four shard segments, then the manifest: the fifth atomic write
        if calls["n"] - 1 == (4 if fail_at == "manifest" else fail_at):
            fh.close()
            raise OSError("disk on fire")
        return fh

    monkeypatch.setattr(os, "fdopen", failing_fdopen)
    with pytest.raises(OSError, match="disk on fire"):
        save_snapshot(index, path)
    monkeypatch.undo()

    after = tree_bytes(path)
    assert not [name for name in after if name.endswith(".tmp")]
    # the old generation is untouched; whatever the failed pass finished
    # is unreferenced generation-2 debris the next save overwrites
    assert {k: v for k, v in after.items() if "g0000000002" not in k} == before
    assert_equivalent(reference, load_snapshot(path),
                      np.random.default_rng(0))
    assert not index._defer_maintenance
    assert save_snapshot(index, path)["generation"] == 2
    assert sorted(tree_bytes(path)) == sorted(
        name.replace("g0000000001", "g0000000002") for name in before)


_SAVER = """
import sys
import numpy as np
import repro
n, path = int(sys.argv[1]), sys.argv[2]
index = repro.Index.build(np.arange(n, dtype=np.uint64) * 3, num_shards=4)
for _ in range(8):
    index.save(path)
"""


def test_two_processes_saving_to_one_path_leave_exactly_one_index(tmp_path):
    """Publishers take turns on the directory's advisory lock, so two
    processes saving *different* indexes into one path never interleave
    generations: what remains opens, whole, to one of the two."""
    path = tmp_path / "race.npz"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SAVER, str(n), str(path)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            stderr=subprocess.PIPE, text=True)
        for n in (4_000, 6_000)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    manifest = load_manifest(path)
    assert manifest["generation"] == 16  # 2 x 8 saves, none lost or doubled
    assert sorted(tree_bytes(path)) == [MANIFEST_NAME] + [
        f"segments/g0000000016-s{s:04d}.npz" for s in range(4)]
    with repro.open(path) as survivor:
        assert len(survivor) in (4_000, 6_000)
        assert np.array_equal(
            survivor.keys, np.arange(len(survivor), dtype=np.uint64) * 3)
