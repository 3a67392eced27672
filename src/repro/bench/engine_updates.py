"""Mixed read/write engine benchmark: insert throughput vs read latency.

Drives the updatable sharded engine through interleaved workloads —
point-lookup batches with inserts woven between them — at several write
fractions and for every shard backend, measuring:

* **insert throughput** — sustained inserts/sec through the routed
  per-shard write path (including amortised refreshes and splits);
* **read latency** — ns per lookup of the vectorised batch read path
  while the structure carries pending updates.

Every cell is verified against a ``searchsorted`` oracle over the live
key sequence after the workload ran, so a reported number can never
come from a wrong engine.  Exposed to the CLI as ``python -m repro
engine-update-bench`` and to CI via
``benchmarks/bench_engine_updates.py --smoke``.
"""

from __future__ import annotations

import time

import numpy as np

from ..datasets import load
from ..engine import BACKEND_KINDS, BatchExecutor, ShardedIndex

#: Write fractions the default sweep measures degradation across.
DEFAULT_WRITE_FRACTIONS = (0.0, 0.01, 0.1, 0.3)


def run_engine_updates(
    n: int = 100_000,
    num_shards: int = 4,
    dataset: str = "uden64",
    model: str = "interpolation",
    layer: str = "R",
    backends: tuple[str, ...] = BACKEND_KINDS,
    write_fractions: tuple[float, ...] = DEFAULT_WRITE_FRACTIONS,
    ops: int = 50_000,
    batch_size: int = 4096,
    seed: int = 42,
    verify: bool = True,
    workers: int = 1,
) -> list[dict[str, object]]:
    """Run the mixed-workload sweep; one result row per (backend, wf).

    ``ops`` is the total operation count per cell; a write fraction of
    ``wf`` turns ``ops * wf`` of them into inserts, executed in even
    slices between the read batches.
    """
    keys = load(dataset, n, seed)
    lo, hi = int(keys.min()), int(keys.max())
    rows: list[dict[str, object]] = []
    for backend in backends:
        for wf in write_fractions:
            rng = np.random.default_rng(seed + 1)
            num_writes = int(ops * wf)
            num_reads = ops - num_writes
            inserts = rng.integers(
                lo, hi + 1, size=max(num_writes, 1)
            ).astype(keys.dtype)[:num_writes]
            reads = rng.choice(keys, num_reads) if num_reads else keys[:0]

            index = ShardedIndex.build(
                keys, num_shards, model=model, layer=layer,
                backend=backend, name=f"{dataset}-{backend}",
            )
            executor = BatchExecutor(index, workers=workers)

            batches = max(1, -(-num_reads // batch_size))
            write_seconds = 0.0
            read_seconds = 0.0
            writes_done = reads_done = 0
            for b in range(batches):
                # the insert slice that precedes this read batch
                w_lo = num_writes * b // batches
                w_hi = num_writes * (b + 1) // batches
                if w_hi > w_lo:
                    chunk = inserts[w_lo:w_hi]
                    t0 = time.perf_counter()
                    for key in chunk:
                        index.insert(key)
                    write_seconds += time.perf_counter() - t0
                    writes_done += len(chunk)
                batch = reads[b * batch_size : (b + 1) * batch_size]
                if len(batch):
                    t0 = time.perf_counter()
                    executor.lookup_batch(batch)
                    read_seconds += time.perf_counter() - t0
                    reads_done += len(batch)

            exact = True
            if verify:
                live = np.sort(np.concatenate([keys, inserts]))
                probe = np.concatenate([
                    rng.choice(live, min(4096, len(live))),
                    rng.integers(lo, hi + 1, 1024).astype(keys.dtype),
                ])
                got = executor.lookup_batch(probe)
                exact = bool(np.array_equal(
                    got, np.searchsorted(live, probe, side="left")
                ))
                if not exact:
                    raise AssertionError(
                        f"{backend} wf={wf}: engine answers diverged "
                        "from the oracle"
                    )

            rows.append({
                "backend": backend,
                "write_fraction": wf,
                "inserts": writes_done,
                "inserts_per_sec": (
                    writes_done / write_seconds if write_seconds else
                    float("nan")
                ),
                "reads": reads_done,
                "read_ns_per_lookup": (
                    1e9 * read_seconds / reads_done if reads_done else
                    float("nan")
                ),
                "read_qps": (
                    reads_done / read_seconds if read_seconds else
                    float("nan")
                ),
                "final_shards": index.num_shards,
                "pending_updates": index.pending_updates(),
                "exact": exact,
            })
    return rows
