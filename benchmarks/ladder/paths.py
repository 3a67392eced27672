"""Where the benchmark lives, and how it finds the program it measures."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: scratch space inside the checkout (durable dirs, saved indexes, traces)
WORK = HERE / ".work"


def ensure_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` or exit with code 2.

    The benchmark measures the source tree it sits in, never an
    installed copy; without that tree there is nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ladder: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
