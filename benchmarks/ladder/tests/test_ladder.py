"""Self-tests of the ladder benchmark, at ``--smoke`` scale.

    python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LADDER = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LADDER))

from paths import ROOT, SPEC, WORK, ensure_repro  # noqa: E402

ensure_repro()

import repro  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from child import ChildServer  # noqa: E402
from oracle import DELETE, INSERT, Mirror, count_wrong  # noqa: E402

SPEC_DOC = json.loads(SPEC.read_text())
SECONDS = 2.0


def smoke(workload: str, seed: int = 3, trace: bool = False) -> dict:
    return run.run_one(workload, seed, SECONDS, trace, smoke=True)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_same_seed_gives_byte_identical_inputs():
    keys = workloads.make_keys(50_000)

    def draw(seed):
        ctx = workloads.Ctx(seed=seed, seconds=1, smoke=True, work=WORK)
        hot = workloads.make_hot_set(ctx.rng(4), keys, 1024)
        uniform = workloads.uniform_stream(ctx.rng(10), keys, 4096)
        zipf = workloads.zipf_stream(ctx.rng(11), hot, 4096)
        plan = workloads.write_plan(ctx.rng(2), keys, 64)
        return (uniform.lo.tobytes(), uniform.hi.tobytes(),
                uniform.is_range.tobytes(), zipf.lo.tobytes(),
                zipf.hi.tobytes(), plan)

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_uniform_stream_never_repeats_a_stored_lookup_position():
    gap = 1 << 20  # unique keys, far enough apart that no miss lands on one
    keys = np.arange(0, 100_000 * gap, gap, dtype=np.uint64)
    stream = workloads.uniform_stream(np.random.default_rng(0), keys, 20_000)
    stored = stream.lo[~stream.is_range & (stream.lo % gap == 0)]
    assert len(stored) > 7_000
    assert len(np.unique(stored)) == len(stored)
    assert 0.2 < stream.is_range.mean() < 0.3


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def test_mirror_matches_a_rebuilt_sorted_array():
    rng = np.random.default_rng(1)
    keys = np.sort(rng.integers(0, 1000, 500).astype(np.uint64))  # duplicates
    mirror, live = Mirror(keys), keys.tolist()
    for op, key in workloads.write_plan(rng, keys, 40):
        mirror.record(op, key)
        live.remove(key) if op == DELETE else live.append(key)
        live.sort()
        probes = rng.integers(0, 1001, 64).astype(np.uint64)
        now = np.asarray(live, dtype=np.uint64)
        version = np.full(64, mirror.version)
        assert np.array_equal(mirror.rank(probes, version),
                              np.searchsorted(now, probes))
        assert np.array_equal(mirror.keys_at(mirror.version), now)


def test_read_overlapping_a_write_accepts_exactly_the_versions_it_spans():
    mirror = Mirror(np.asarray([10, 20, 30], dtype=np.uint64))
    mirror.record(INSERT, 15)
    q = np.asarray([25], dtype=np.uint64)
    none = np.zeros(1, dtype=np.uint64)
    lookup = np.zeros(1, dtype=bool)

    def wrong(answer, first, last):
        return count_wrong(mirror, lookup, q, none, np.asarray([answer]),
                           np.asarray([first]), np.asarray([last]))

    assert wrong(2, 0, 0) == 0       # before the write
    assert wrong(3, 0, 0) == 1       # ...the later state is not acceptable
    assert wrong(2, 0, 1) == 0       # overlapping: either state
    assert wrong(3, 0, 1) == 0
    assert wrong(2, 1, 1) == 1       # submitted after the ack: new state only
    assert wrong(-1, 0, 1) == 1      # an exception or timeout


def test_a_deliberately_wrong_oracle_is_caught_as_failed_ops(monkeypatch):
    class OffByOne(Mirror):
        def rank(self, queries, versions):
            return super().rank(queries, versions) + 1

    monkeypatch.setattr(workloads, "Mirror", OffByOne)
    result = smoke("serve_uniform")
    # every lookup is off by one; a range's two errors cancel in its count
    assert result["failed"] > 0.6 * result["attempted"]
    assert result["correct"] is False


def test_a_stalled_write_is_charged_once_and_moves_the_schedule():
    keys = np.arange(100, dtype=np.uint64)
    writes = workloads.Writes(workloads.write_plan(np.random.default_rng(0), keys, 50),
                              Mirror(keys))
    out = workloads.Outcome()
    service = iter([0.001, 0.12] + [0.001] * 100)  # the 2nd ack is 70 ms late

    async def write(key):
        await asyncio.sleep(next(service))

    took = asyncio.run(workloads.write_segment(write, write, writes, 0.5, 20.0,
                                               out, None))
    assert took[1] > 0.12
    # nothing after the stall waits for it: no later write is a slot late
    assert max(took[2:]) < 0.05
    assert writes.slipped == 1
    # 0.5 s at 20/s is 10 slots; the stall pushed the last past the deadline
    assert len(took) == out.attempted == writes.acked == 9


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_name_has_a_finite_nonzero_value(workload):
    result = smoke(workload)
    assert result["correct"] and result["failed"] == 0 < result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC_DOC["end_to_end"]]
    for m in SPEC_DOC["end_to_end"]:
        cell = result["metrics"][m["name"]]
        assert cell["unit"] == m["unit"]
        assert math.isfinite(cell["value"]) and cell["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_name_has_a_finite_value(workload):
    result = smoke(workload, trace=True)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC_DOC["per_layer"]]
    assert all(math.isfinite(c["value"]) for c in result["metrics"].values())
    trace = json.loads((WORK / f"trace-{workload}.json").read_text())
    assert trace["columns"] == ["name", "start_s", "end_s", "parent", "request"]
    assert "ladder.pass" in trace["names"] and len(trace["spans"]) > 1000
    name, start, end, parent, _ = trace["spans"][-1]
    assert end >= start and -1 <= parent < len(trace["spans"])


def test_same_seed_repeats_the_exact_counts():
    exact = ("core.window_mean", "hardware.accesses_per_lookup",
             "net.bytes_in_per_request", "net.bytes_out_per_request")
    first, second = smoke("engine_batch", trace=True), smoke("engine_batch", trace=True)
    assert first["stream_sha256"] == second["stream_sha256"]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name]
    first, second = smoke("serve_zipf_rw"), smoke("serve_zipf_rw")
    assert first["stream_sha256"] == second["stream_sha256"]
    assert (first["metrics"]["index_bytes_per_key"]
            == second["metrics"]["index_bytes_per_key"])
    assert smoke("serve_zipf_rw", seed=4)["stream_sha256"] != first["stream_sha256"]


def test_a_missing_or_nan_metric_voids_the_run(monkeypatch):
    def broken(ctx):
        out = workloads.engine_batch(ctx)
        out.e2e["read_p95_us"] = float("nan")
        return out

    monkeypatch.setitem(workloads.DRIVERS, "engine_batch", broken)
    with pytest.raises(SystemExit, match="read_p95_us"):
        smoke("engine_batch")


def test_exits_nonzero_and_prints_no_result_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(LADDER, tmp_path / "benchmarks" / "ladder",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ladder/run.py", "--workload", "net_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


# ----------------------------------------------------------------------
# the child server
# ----------------------------------------------------------------------
def test_child_server_is_reaped_on_error_paths(tmp_path):
    keys = np.arange(10_000, dtype=np.uint64)
    saved = tmp_path / "index.npz"
    index = repro.Index.build(keys)
    index.save(saved)
    index.close()
    with pytest.raises(KeyError):
        with ChildServer(saved) as child:
            proc = child.proc
            assert proc.poll() is None and child.port > 0
            raise KeyError("the benchmark failed mid-run")
    assert proc.poll() is not None

    missing = ChildServer(tmp_path / "absent.npz")
    with pytest.raises(RuntimeError, match="did not start"):
        missing.__enter__()
    assert missing.proc is None


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert report.verdict(steady, [102.0, 101.5, 103.0, 102.5], "lower", 0.10) \
        == "within-bound"
    assert report.verdict(steady, [120.0, 121.0, 119.0, 120.5], "lower", 0.10) \
        == "worse"
    assert report.verdict(steady, [120.0, 121.0, 119.0, 120.5], "higher", 0.10) \
        == "better"
    assert report.verdict(steady, [95.0, 96.0, 94.0, 95.5], "lower", 0.10) \
        == "better"      # every run beats every run, inside the bound
    noisy = [100.0, 140.0, 80.0, 125.0, 90.0]
    assert report.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert report.verdict([100.0], [130.0], "lower", 0.10) == "unresolved"
    assert report.verdict([100.0], [103.0], "lower", 0.10) == "within-bound"


def _result_file(path: Path, values: list[float], **fp) -> Path:
    fingerprint = {**report.fingerprint(smoke=True), **fp}
    for seed, value in enumerate(values):
        cell = {"value": value, "unit": "us"}
        report.append_run(path, fingerprint, {
            "workload": "net_tcp", "seed": seed, "trace": 0,
            "metrics": {"read_p50_us": cell}})
    return path


def test_compare_exits_nonzero_only_on_worse(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", [100.0, 101.0, 99.0, 100.0])
    same = _result_file(tmp_path / "b.json", [100.5, 101.5, 99.5, 100.0])
    slow = _result_file(tmp_path / "c.json", [130.0, 131.0, 129.0, 130.0])
    assert report.compare(base, same) == 0
    assert "within-bound" in capsys.readouterr().out
    assert report.compare(base, slow) == 1
    assert "worse" in capsys.readouterr().out
    assert run.main(["compare", str(base), str(slow)]) == 1


def test_compare_and_append_refuse_a_different_environment(tmp_path):
    base = _result_file(tmp_path / "a.json", [100.0])
    other = _result_file(tmp_path / "b.json", [100.0], kernel_mode="numba")
    full = _result_file(tmp_path / "c.json", [100.0], smoke=False)
    with pytest.raises(SystemExit, match="kernel_mode"):
        report.compare(base, other)
    with pytest.raises(SystemExit, match="smoke"):
        report.compare(base, full)
    with pytest.raises(SystemExit, match="another environment"):
        _result_file(base, [100.0], numpy="0.0")


def test_fingerprint_names_the_environment():
    fp = report.fingerprint(smoke=True)
    assert set(fp) == {"nproc", "python", "numpy", "kernel_mode",
                       "numba_importable", "git_sha", "smoke"}
    assert fp["kernel_mode"] in ("numpy", "numba")
    if (ROOT / ".git").exists():
        assert len(fp["git_sha"]) == 40
