"""Public-API quickstart: the ``repro.Index`` facade front to back.

One handle does the whole lifecycle — build with a validated config,
point/range/scan queries, writes, §3.9 retuning, save a snapshot
directory, ``repro.open`` it back without refitting, and serve it over
asyncio —
all verified against ``np.searchsorted`` ground truth.

Run:  PYTHONPATH=src python examples/index_quickstart.py
"""

import asyncio
import tempfile
import time
from pathlib import Path

import numpy as np

import repro


def main() -> None:
    # 1. build: one call, one validated config (presets: "read_heavy",
    #    "mixed", "auto")
    rng = np.random.default_rng(7)
    keys = np.sort(rng.integers(0, 1 << 40, 300_000, dtype=np.uint64))
    t0 = time.perf_counter()
    index = repro.Index.build(keys, "mixed", num_shards=4, name="quickstart")
    build_s = time.perf_counter() - t0
    print(", ".join(f"{k}={v}" for k, v in index.build_info().items()))

    # 2. reads: point lookups, ranges, materialised scans
    queries = rng.choice(keys, 50_000)
    assert np.array_equal(index.lookup_many(queries),
                          np.searchsorted(keys, queries))
    lo, hi = keys[1_000], keys[250_000]
    first, last = index.range(lo, hi)
    assert np.array_equal(index.scan(lo, hi), keys[first:last])
    print(f"{len(queries):,} lookups + a {last - first:,}-key scan verified")

    # 3. writes route through the same handle
    new_key = np.uint64(int(keys[-1]) + 1)
    index.insert(new_key)
    assert index.lookup(new_key) == len(keys)
    index.delete(new_key)
    index.retune()  # §3.9 per-shard maintenance pass

    # 4. persist the whole engine, reopen it without refitting
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quickstart.index"
        index.save(path)  # a directory: MANIFEST.json + segments/
        t0 = time.perf_counter()
        reopened = repro.open(path)
        open_s = time.perf_counter() - t0
        assert reopened.build_info()["source"] == "loaded"
        assert np.array_equal(reopened.lookup_many(queries),
                              index.lookup_many(queries))
        saved_mb = sum(p.stat().st_size for p in path.rglob("*")
                       if p.is_file()) / 1e6
        print(f"saved {saved_mb:.1f} MB; reopened in "
              f"{open_s * 1e3:.0f} ms (build took {build_s * 1e3:.0f} ms) "
              f"— answers bit-identical")

    # 5. serve it: micro-batching + caching + background retune
    async def serve_a_little() -> None:
        async with index.serve(max_batch=64,
                               retune_interval=30.0) as server:
            got = await asyncio.gather(
                *[server.lookup(q) for q in queries[:256]]
            )
            assert np.array_equal(np.asarray(got),
                                  np.searchsorted(keys, queries[:256]))
            span = await server.range_keys(lo, keys[1_050])
            assert np.array_equal(span, keys[1_000:1_050])
            print(f"served {len(got)} lookups + a scan; "
                  f"p50={server.stats.latency_us(50):.0f}us, "
                  f"mean batch={server.stats.mean_batch_size:.1f}")

    asyncio.run(serve_a_little())


if __name__ == "__main__":
    main()
