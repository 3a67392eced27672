"""The ``repro.Index`` facade: one front door over build → query →
mutate → save → ``repro.open`` → serve (ISSUE 5 tentpole).

Covers :class:`IndexConfig` validation/presets/dict round-trips, every
facade read and write path against ``np.searchsorted`` oracles, the
save → reopen → serve lifecycle (including a fresh-subprocess reopen,
the acceptance criterion's shape at test scale), and the new CLI
``version``/``build``/``inspect`` commands.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import Index, IndexConfig
from repro.api import PRESETS
from repro.engine.autotune import AutoTuneConfig
from repro.engine.persist import IndexPersistError

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def keys():
    rng = np.random.default_rng(21)
    keys = rng.integers(0, 1 << 40, 30_000, dtype=np.uint64)
    keys[500:560] = keys[500]  # duplicate run
    keys.sort()
    return keys


# ----------------------------------------------------------------------
# IndexConfig
# ----------------------------------------------------------------------
def test_config_validates_every_field():
    with pytest.raises(ValueError, match="num_shards"):
        IndexConfig(num_shards=0)
    with pytest.raises(ValueError, match="'no-such-model' is not served"):
        IndexConfig(model="no-such-model")
    with pytest.raises(ValueError, match="<lambda>.* is not served"):
        IndexConfig(model=lambda ks: ks)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="layer 'Q' is not served"):
        IndexConfig(layer="Q")
    with pytest.raises(ValueError, match="backend"):
        IndexConfig(backend="btree")
    with pytest.raises(ValueError, match="density"):
        IndexConfig(density=0.01)
    with pytest.raises(ValueError, match="workers"):
        IndexConfig(workers=0)
    with pytest.raises(ValueError, match="auto_tune"):
        IndexConfig(auto_tune="yes")  # type: ignore[arg-type]


def test_config_is_immutable():
    config = IndexConfig()
    with pytest.raises(FrozenInstanceError):
        config.num_shards = 2  # type: ignore[misc]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_resolve_and_accept_overrides(name):
    config = IndexConfig.from_preset(name, num_shards=3)
    assert config.num_shards == 3
    if name == "auto":
        assert config.auto_tune is True
    with pytest.raises(ValueError, match="preset"):
        IndexConfig.from_preset("nope")


@pytest.mark.parametrize("config", [
    IndexConfig(),
    IndexConfig.from_preset("mixed", num_shards=5),
    IndexConfig(auto_tune=AutoTuneConfig(min_shard_keys=128), layer="S",
                model="rmi", backend="fenwick", merge_threshold=64),
])
def test_config_dict_round_trip(config):
    payload = config.to_dict()
    assert payload["config_version"] == repro.api.CONFIG_VERSION
    assert IndexConfig.from_dict(payload) == config


def test_config_rejects_future_dict_version():
    payload = IndexConfig().to_dict()
    payload["config_version"] = 99
    with pytest.raises(ValueError, match="version"):
        IndexConfig.from_dict(payload)


# ----------------------------------------------------------------------
# facade reads and writes
# ----------------------------------------------------------------------
def test_build_accepts_config_preset_and_overrides(keys):
    for config in (None, "mixed", IndexConfig(num_shards=2)):
        index = Index.build(keys, config, num_shards=3)
        assert index.engine.num_shards == 3
        assert index.source == "built"
    with pytest.raises(TypeError, match="config"):
        Index.build(keys, 42)  # type: ignore[arg-type]


def test_facade_reads_match_oracle(keys):
    index = Index.build(keys, IndexConfig(num_shards=4, backend="gapped"))
    rng = np.random.default_rng(0)
    queries = np.concatenate([
        rng.choice(keys, 500), rng.integers(0, 1 << 41, 500, dtype=np.uint64)
    ])
    assert np.array_equal(index.lookup_many(queries),
                          np.searchsorted(keys, queries, side="left"))
    q = keys[777]
    assert index.lookup(q) == int(np.searchsorted(keys, q, side="left"))

    lo, hi = keys[100], keys[2_000]
    first, last = index.range(lo, hi)
    assert (first, last) == (int(np.searchsorted(keys, lo)),
                             int(np.searchsorted(keys, hi)))
    assert index.count(lo, hi) == last - first
    assert np.array_equal(index.scan(lo, hi), keys[first:last])

    lows = rng.choice(keys, 64)
    highs = lows + np.uint64(1 << 30)
    f_many, l_many = index.range_many(lows, highs)
    assert np.array_equal(f_many, np.searchsorted(keys, lows))
    assert np.array_equal(l_many, np.searchsorted(keys, highs))
    for got, a, b in zip(index.scan_many(lows, highs), f_many, l_many):
        assert np.array_equal(got, keys[a:b])

    assert "shard" in index.explain(queries[:64])
    assert len(index) == len(keys)
    assert index.key_dtype == keys.dtype


def test_facade_writes_and_maintenance(keys):
    index = Index.build(keys, "mixed", num_shards=4)
    oracle = keys.copy()
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = np.uint64(rng.integers(0, 1 << 40))
        index.insert(k)
        oracle = np.insert(oracle, int(np.searchsorted(oracle, k)), k)
    for k in rng.choice(oracle, 50, replace=False):
        index.delete(k)
        oracle = np.delete(oracle, int(np.searchsorted(oracle, k)))
    index.refresh()
    actions = index.retune()
    assert {a["action"] for a in actions} <= {"keep", "rebuild", "merge"}
    queries = queries = np.concatenate([
        rng.choice(oracle, 400),
        rng.integers(0, 1 << 41, 100, dtype=np.uint64),
    ])
    assert np.array_equal(index.lookup_many(queries),
                          np.searchsorted(oracle, queries, side="left"))
    with pytest.raises(KeyError):
        index.delete(np.uint64(1) << np.uint64(63))


def test_facade_context_manager_closes_executor(keys):
    with Index.build(keys, IndexConfig(workers=2)) as index:
        index.lookup_many(keys[::300])  # spans every shard: pool spins up
        assert index.executor._pool is not None
    assert index.executor._pool is None


# ----------------------------------------------------------------------
# save → open → serve
# ----------------------------------------------------------------------
def test_save_open_round_trip_preserves_config(tmp_path, keys):
    config = IndexConfig(num_shards=4, backend="fenwick", model="rmi",
                         merge_threshold=128)
    index = Index.build(keys, config, name="trip")
    index.insert(np.uint64(42))
    path = tmp_path / "trip.npz"
    manifest = index.save(path)
    assert manifest["index_config"]["backend"] == "fenwick"

    loaded = repro.open(path)
    assert loaded.source == "loaded"
    assert loaded.build_info()["source"] == "loaded"
    assert loaded.config == config
    rng = np.random.default_rng(2)
    queries = rng.integers(0, 1 << 41, 2_000, dtype=np.uint64)
    assert np.array_equal(loaded.lookup_many(queries),
                          index.lookup_many(queries))


def test_open_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not an index")
    with pytest.raises(IndexPersistError):
        repro.open(bad)


def test_build_save_open_serve_end_to_end(tmp_path, keys):
    """The acceptance-criterion lifecycle at test scale: build → save →
    reopen in a *fresh process* (no refit) → serve an oracle-verified
    mixed workload with zero mismatches."""
    index = Index.build(keys, "mixed", num_shards=4, name="e2e")
    path = tmp_path / "e2e.npz"
    index.save(path)

    script = f"""
import asyncio, sys
import numpy as np
import repro

index = repro.open({str(path)!r})
assert index.source == "loaded", index.source
assert index.build_info()["source"] == "loaded"

async def main():
    rng = np.random.default_rng(5)
    oracle = index.keys.copy()
    mismatches = 0
    async with index.serve(max_batch=64) as server:
        for round_ in range(20):
            qs = np.concatenate([
                rng.choice(oracle, 16),
                rng.integers(0, 1 << 41, 8, dtype=np.uint64),
            ])
            got = await asyncio.gather(*[server.lookup(q) for q in qs])
            mismatches += int(np.sum(
                np.asarray(got) != np.searchsorted(oracle, qs, side="left")
            ))
            lo, hi = sorted(rng.choice(oracle, 2).tolist())
            lo, hi = np.uint64(lo), np.uint64(hi)
            count = await server.range(lo, hi)
            a, b = np.searchsorted(oracle, [lo, hi])
            mismatches += int(count != b - a)
            scanned = await server.range_keys(lo, hi)
            mismatches += int(not np.array_equal(scanned, oracle[a:b]))
            k = np.uint64(rng.integers(0, 1 << 40))
            await server.insert(k)
            oracle = np.insert(oracle, int(np.searchsorted(oracle, k)), k)
            victim = rng.choice(oracle)
            await server.delete(victim)
            oracle = np.delete(
                oracle, int(np.searchsorted(oracle, victim)))
    return mismatches

mismatches = asyncio.run(main())
print("MISMATCHES", mismatches)
sys.exit(0 if mismatches == 0 else 1)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "MISMATCHES 0" in result.stdout


# ----------------------------------------------------------------------
# CLI: version / build / inspect
# ----------------------------------------------------------------------
def test_cli_version(capsys):
    from repro.cli import main

    assert main(["version"]) == 0
    out = capsys.readouterr().out
    assert repro.__version__ in out and "engine format" in out


def test_cli_version_flag():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--version"],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert repro.__version__ in result.stdout


def test_cli_build_save_inspect(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "cli.npz"
    assert main(["build", "--dataset", "uden64", "--n", "20000",
                 "--shards", "3", "--preset", "mixed",
                 "--save", str(path)]) == 0
    out = capsys.readouterr().out
    assert "source=built" in out and path.is_dir()
    assert "(0.0 MB)" not in out  # the size of the files, not the dirent

    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "source=loaded" in out and "backend=gapped" in out


# ----------------------------------------------------------------------
# dtype exactness at the top of the uint64 domain (regression: the
# facade used to funnel queries through np.asarray, whose float64
# inference corrupts keys above 2**53)
# ----------------------------------------------------------------------
def test_facade_exact_at_uint64_extremes():
    top = (1 << 64) - 1
    raw = [5, 10, top - 2, top - 1, top]
    keys_hi = np.array(raw, dtype=np.uint64)
    index = Index.build(keys_hi, IndexConfig(num_shards=2))

    # python-int queries at the extreme: float64 would collapse the top
    # three keys into one value; positions must stay distinct
    pos = index.lookup_many([top - 2, top - 1, top])
    assert pos.tolist() == [2, 3, 4]
    assert index.lookup(top) == 4

    # mixed-sign list: plain np.asarray would infer float64 for it
    pos = index.lookup_many([-1, 7, top])
    assert pos.tolist() == [0, 1, 4]

    # fractional floats ceil to the next representable key
    assert index.lookup_many([7.5]).tolist() == [1]
    assert index.lookup_many([float(2**63)]).tolist() == [2]

    # ranges and scans at the top of the domain stay exact too
    assert index.range(top - 2, top) == (2, 4)
    assert index.count(top - 2, top) == 2
    assert index.scan(top - 2, top).tolist() == [top - 2, top - 1]
    first, last = index.range_many([-5, top - 1], [6, top])
    assert first.tolist() == [0, 3] and last.tolist() == [1, 4]
    got = index.scan_many([top - 2], [top])
    assert got[0].tolist() == [top - 2, top - 1]

    # beyond-domain queries clamp to len(index), never wrap around
    assert index.lookup_many([float(2**65)]).tolist() == [5]
    assert "shard" in index.explain([top])


def test_executor_range_batch_exact_at_uint64_extremes():
    # same regression one layer down: BatchExecutor.range_batch used to
    # np.asarray its bounds directly
    from repro.engine import BatchExecutor, ShardedIndex

    top = (1 << 64) - 1
    keys_hi = np.array([5, 10, top - 2, top - 1, top], dtype=np.uint64)
    executor = BatchExecutor(ShardedIndex.build(keys_hi, 2))
    first, last = executor.range_batch([top - 2, -3], [top, 7])
    assert first.tolist() == [2, 0] and last.tolist() == [4, 1]
    # out-of-domain low clamps the whole range empty at the tail
    first, last = executor.range_batch([float(2**65)], [float(2**66)])
    assert first.tolist() == [5] and last.tolist() == [5]


# ----------------------------------------------------------------------
# CLI help audit: every command documented, every argument has help
# ----------------------------------------------------------------------
def test_cli_help_audit():
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    subactions = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert len(subactions) == 1
    commands = subactions[0].choices
    assert "lint" in commands
    doc = __import__("repro.cli", fromlist=["cli"]).__doc__
    for name, sub in commands.items():
        assert name in doc, f"command {name!r} missing from repro.cli docstring"
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.help, (
                f"argument {action.option_strings or action.dest} of "
                f"{name!r} has no help text")
