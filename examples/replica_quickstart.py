"""Replication quickstart: checkpoint shipping + WAL-tail streaming.

Builds a durable leader, serves it over TCP (``Index.serve(addr=...)``;
replication rides the same port), and walks a follower through its
whole lifecycle:

1. **full sync** — an empty directory pulls the leader's published
   checkpoint generation (chunked, checksum-verified segment fetches),
   then streams the live WAL tail; every read is verified against
   ``np.searchsorted`` on the leader's own key array;
2. **incremental catch-up** — the follower disconnects, the leader
   keeps writing, and a re-``follow`` of the same directory resumes
   from its local WAL head: zero segment bytes re-shipped;
3. **promotion** — the replica directory is a bona fide durable
   directory, so ``repro.open()`` turns the follower into a
   standalone writable index.

Run:  PYTHONPATH=src python examples/replica_quickstart.py
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.replica import follow


async def main() -> None:
    rng = np.random.default_rng(11)
    tmp = Path(tempfile.mkdtemp(prefix="repro-replica-"))
    keys = np.sort(rng.choice(1 << 40, 50_000, replace=False)
                   .astype(np.uint64))
    index = repro.Index.build(
        keys, num_shards=2, durable_dir=tmp / "leader",
        durability="async")
    index.durability.keep_generations = 2  # resume window across GC
    index.checkpoint()  # publish a generation for followers to ship

    async with index.serve(addr=("127.0.0.1", 0)) as net:
        print(f"leader: serving and replicating on {net.address}")

        # 1. full sync + live streaming, oracle-verified reads
        replica = await follow(net.address, tmp / "replica")
        fresh = (rng.choice(1 << 40, 500, replace=False)
                 .astype(np.uint64) | np.uint64(1 << 41))
        for key in fresh:
            index.insert(key)
        await replica.wait_caught_up()
        live = index.keys
        queries = rng.integers(0, 1 << 42, 1_000).astype(np.uint64)
        want = np.searchsorted(live, queries, side="left")
        got = replica.lookup_many(queries)
        lag = replica.lag()
        print(f"follower: synced {replica.bytes_synced:,} bytes, "
              f"streamed {replica.streamed_records} records, "
              f"{int((got == want).sum())}/{len(queries)} lookups exact, "
              f"lag {lag.lsns} LSNs / {lag.seconds:.3f}s")
        assert np.array_equal(got, want)
        await replica.close()

        # 2. reconnect resumes incrementally (no segment re-ship)
        for key in fresh:
            index.delete(key)  # writes while the follower is away
        replica = await follow(net.address, tmp / "replica")
        await replica.wait_caught_up()
        assert np.array_equal(replica.keys, index.keys)
        print(f"reconnect: {replica.full_syncs} full syncs, "
              f"{replica.bytes_synced} segment bytes re-shipped, "
              f"{replica.streamed_records} records streamed instead")
        await replica.close()

    index.close()

    # 3. promotion: the replica directory recovers as a writable index
    promoted = repro.open(tmp / "replica")
    assert np.array_equal(promoted.keys, keys)
    promoted.insert(np.uint64((1 << 42) + 99))
    print(f"promoted: {len(promoted):,} keys, durable="
          f"{promoted.durable}, writable again")
    promoted.close()


if __name__ == "__main__":
    asyncio.run(main())
