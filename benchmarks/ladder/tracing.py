"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``(name, start, end, parent, request id)``.  Spans are kept in
a list while the run measures and written out once, when it ends; the
per-layer metrics are derived from them.  End-to-end numbers are always
taken with no tracer installed.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        # (name id, start s, end s, parent span index or -1, request id)
        self.spans: list[tuple[int, float, float, int, int]] = []

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def open(self, name: str, parent: int = -1, rid: int = -1) -> int:
        """Start a span now; returns its index for :meth:`close`/children."""
        self.spans.append((self.name_id(name), perf_counter(), 0.0, parent, rid))
        return len(self.spans) - 1

    def close(self, span: int) -> float:
        """End a span now; returns its duration in seconds."""
        nid, start, _, parent, rid = self.spans[span]
        end = perf_counter()
        self.spans[span] = (nid, start, end, parent, rid)
        return end - start

    def total(self, name: str, first_span: int = 0) -> float:
        """Summed duration of the spans called ``name`` from ``first_span`` on."""
        nid = self.names.get(name)
        return sum(e - s for n, s, e, _, _ in self.spans[first_span:] if n == nid)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.names, key=self.names.get)
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start_s", "end_s", "parent", "request"],
                "names": names,
                "spans": self.spans,
            }, fh)
