"""Result files, the environment fingerprint, and the noise-aware compare.

A result file is one environment's runs: a fingerprint plus a list of
runs, each a workload, a seed and its metrics.  ``compare`` reads two of
them and gives one verdict per (end-to-end metric, workload), from the
bounds fixed in ``BENCHMARK.json`` and each side's quartiles.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

import numpy as np

from paths import ROOT, SPEC
from repro.kernels import REGISTRY, numba_available

#: fewer runs than this on a side cannot resolve a difference from noise
MIN_RUNS = 4


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` (no subprocess); else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(smoke: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_mode": REGISTRY.effective_mode(),
        "numba_importable": numba_available,
        "git_sha": git_sha(),
        "smoke": smoke,
    }


def append_run(path: Path, fp: dict, run: dict) -> None:
    """Add ``run`` to the result file at ``path`` (created if missing)."""
    doc = {"schema": 1, "fingerprint": fp, "runs": []}
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
        if doc["fingerprint"] != fp:
            raise SystemExit(
                f"ladder: {path} holds runs of another environment "
                f"({doc['fingerprint']} != {fp}); write to a new file")
    doc["runs"].append(run)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better`` / ``worse`` / ``within-bound`` / ``unresolved`` for B vs A."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    worse_by = sign * (statistics.median(b) - med_a) / abs(med_a)
    enough = min(len(a), len(b)) >= MIN_RUNS
    if enough and all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"  # the noise is wider than the bound
    if worse_by > bound:
        return "worse" if enough else "unresolved"
    return "within-bound"


def _by_workload(doc: dict, trace: int) -> dict[str, dict[str, list[float]]]:
    table: dict[str, dict[str, list[float]]] = {}
    for run in doc["runs"]:
        if run["trace"] != trace:
            continue
        cells = table.setdefault(run["workload"], {})
        for name, cell in run["metrics"].items():
            cells.setdefault(name, []).append(cell["value"])
    return table


def compare(path_a: Path, path_b: Path) -> int:
    """Print the verdict table; the exit code is 1 if anything is ``worse``."""
    docs = []
    for path in (path_a, path_b):
        with open(path) as fh:
            docs.append(json.load(fh))
    fa, fb = (d["fingerprint"] for d in docs)
    for key in ("kernel_mode", "smoke"):
        if fa[key] != fb[key]:
            raise SystemExit(
                f"ladder: refusing to compare: {key} differs "
                f"({fa[key]!r} vs {fb[key]!r})")
    spec = load_spec()
    a, b = (_by_workload(d, 0) for d in docs)
    worse = 0
    print(f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'IQR A':>6} {'IQR B':>6} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va, vb = a[workload].get(m["name"]), b[workload].get(m["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            worse += v == "worse"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:<14} {m['name']:<20} {ma:>12.5g} {mb:>12.5g} "
                  f"{(mb - ma) / abs(ma):>+8.1%} {spread(va):>6.1%} "
                  f"{spread(vb):>6.1%} {m['bound']:>6.0%}  {v}  "
                  f"(n={len(va)}/{len(vb)}, {m['better']} is better)")
    a, b = (_by_workload(d, 1) for d in docs)
    for workload in sorted(set(a) & set(b)):
        print(f"\nper-layer medians, {workload} (no bound, no verdict):")
        for m in spec["per_layer"]:
            va, vb = a[workload].get(m["name"]), b[workload].get(m["name"])
            if va and vb:
                ma, mb = statistics.median(va), statistics.median(vb)
                change = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
                print(f"  {m['name']:<36} {ma:>12.5g} {mb:>12.5g} "
                      f"{m['unit']:<6} {change}")
    return 1 if worse else 0
