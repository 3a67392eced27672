"""Plain-text table/series formatting for benchmark output.

``python -m repro paper`` and the standalone benchmark scripts print the
rows the paper reports through these helpers.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
    float_digits: int = 1,
) -> str:
    """Fixed-width text table; NaN renders as the paper's ``N/A``."""

    def cell(value: object) -> str:
        if value is None:
            return "N/A"
        if isinstance(value, float):
            if math.isnan(value):
                return "N/A"
            return f"{value:.{float_digits}f}"
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, v in enumerate(row):
            widths[i] = max(widths[i], len(v))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(v.rjust(w) if i else v.ljust(w)
                      for i, (v, w) in enumerate(zip(row, widths)))
        )
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render headers + rows as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def speedup(baseline_ns: float, ns: float) -> float:
    """How many times faster than the baseline (NaN-safe)."""
    if math.isnan(baseline_ns) or math.isnan(ns) or ns <= 0:
        return float("nan")
    return baseline_ns / ns
