"""Execution plans: what the batch engine is about to do, and why.

`plan()` is the engine's EXPLAIN — it routes a batch without executing
it and reports, per touched shard, how many queries land there, which
last-mile strategy the shard's model/layer combination implies, and the
expected search-window size.  The CLI surfaces this in
``python -m repro build`` (and ``inspect``), which EXPLAINs a sample
batch against the index it built (or opened).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardSlice:
    """One shard's share of a planned batch.

    ``origin`` records the structural lineage of the shard ("build",
    "split", "merge" or "retune"); ``decision`` is the compact §3.9
    tuner-decision label (e.g. ``"rmi+R/gapped"``) for auto-tuned
    shards, ``None`` for hand-configured ones.
    """

    shard_id: int
    num_queries: int
    num_keys: int
    index_name: str
    strategy: str
    expected_window: float | None = None
    backend: str = "static"
    pending_updates: int = 0
    origin: str = "build"
    decision: str | None = None

    def describe(self) -> str:
        """One aligned text row (the EXPLAIN output format)."""
        window = (
            f", E[window]={self.expected_window:.1f}"
            if self.expected_window is not None
            else ""
        )
        staleness = (
            f", pending={self.pending_updates:,}"
            if self.pending_updates else ""
        )
        lineage = f", {self.origin}" if self.origin != "build" else ""
        tuned = f" tuned={self.decision}" if self.decision else ""
        return (
            f"shard {self.shard_id:>4}: {self.num_queries:>8,} queries over "
            f"{self.num_keys:>10,} keys via {self.index_name} "
            f"[{self.strategy}{window}] "
            f"<{self.backend}{staleness}{lineage}>{tuned}"
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """Routing + strategy summary for one batch, before execution.

    ``num_splits``/``num_merges`` are the index's lifetime structural
    maintenance counters — how many run-aligned shard splits and merges
    have happened since build.
    """

    num_queries: int
    num_shards: int
    mode: str
    workers: int
    slices: list[ShardSlice] = field(default_factory=list)
    num_splits: int = 0
    num_merges: int = 0

    @property
    def shards_touched(self) -> int:
        """How many distinct shards this batch lands on."""
        return len(self.slices)

    def describe(self) -> str:
        """Multi-line text rendering (header + one row per shard)."""
        maintenance = (
            f", splits={self.num_splits}, merges={self.num_merges}"
            if self.num_splits or self.num_merges else ""
        )
        lines = [
            f"batch of {self.num_queries:,} queries over "
            f"{self.num_shards} shard(s), mode={self.mode}, "
            f"workers={self.workers}, touching {self.shards_touched} "
            f"shard(s){maintenance}"
        ]
        lines.extend(s.describe() for s in self.slices)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()
