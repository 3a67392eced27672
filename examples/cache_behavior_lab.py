"""A lab tour of the simulated memory hierarchy (the §2 argument, live).

The paper's whole motivation is cache behaviour: binary search keeps its
hot midpoints cached (§2.2, Figure 1b) while a learned index's last-mile
search runs over cold memory (§2.1, Figure 1a).  This example makes both
effects visible with the simulator: per-level hit counts for binary
search at increasing depths, the cost asymmetry of the same access
pattern warm vs cold, and why one Shift-Table probe costs a flat ~36 ns.

Run:  python examples/cache_behavior_lab.py
"""

import numpy as np

from repro.core.records import SortedData
from repro.core.shift_table import ShiftTable
from repro.datasets import load
from repro.hardware.hierarchy import MemoryHierarchy
from repro.hardware.machine import MachineSpec
from repro.hardware.tracker import SimTracker
from repro.models.interpolation import InterpolationModel
from repro.search.binary import lower_bound


def main() -> None:
    n = 500_000
    keys = load("face64", n)
    data = SortedData(keys, name="face64")
    machine = MachineSpec.paper().scaled_for(n, data.record_bytes)
    print(f"simulated machine: L1={machine.l1_bytes//1024}KB "
          f"L2={machine.l2_bytes//1024}KB L3={machine.l3_bytes//1024}KB, "
          f"DRAM={machine.dram_ns:.0f}ns (scaled for {n:,} keys)")

    # ---- Figure 1b: binary search's hot top levels stay cached --------
    hierarchy = MemoryHierarchy(machine)
    tracker = SimTracker(hierarchy)
    rng = np.random.default_rng(0)
    warm = rng.choice(keys, 2000)
    for q in warm:
        lower_bound(keys, data.region, tracker, q)
    hierarchy.reset_stats()
    measured = rng.choice(keys, 500)
    for q in measured:
        lower_bound(keys, data.region, tracker, q)
    s = hierarchy.stats
    per = len(measured)
    print("\nbinary search, steady state (per lookup):")
    print(f"  accesses {s.accesses/per:5.1f} | L1 hits {s.l1_hits/per:5.1f} "
          f"| L2 {s.l2_hits/per:4.1f} | L3 {s.l3_hits/per:4.1f} "
          f"| DRAM {s.dram_accesses/per:4.1f}")
    print(f"  -> the first ~{int(s.l1_hits/per + s.l2_hits/per + s.l3_hits/per)} "
          f"bisection steps ride the cache (Figure 1b); only the deep "
          f"steps pay DRAM")

    # ---- the same pattern cold: every step is a miss -------------------
    cold = MemoryHierarchy(machine)
    cold_tracker = SimTracker(cold)
    lower_bound(keys, data.region, cold_tracker, int(measured[0]))
    print(f"\none COLD binary search: {cold.stats.total_ns:.0f} ns "
          f"({cold.stats.dram_accesses} DRAM misses) — vs "
          f"{s.total_ns/per:.0f} ns warm")

    # ---- the Shift-Table probe: one flat DRAM access -------------------
    model = InterpolationModel(keys)
    layer = ShiftTable.build(keys, model)
    probe = MemoryHierarchy(machine)
    probe_tracker = SimTracker(probe)
    layer.window(model.predict_pos(int(measured[0])), probe_tracker)
    print(f"\none Shift-Table probe: {probe.stats.total_ns:.0f} ns "
          f"(paper §4.1: 'around 40ns') — the layer is too big to cache, "
          f"but needs exactly one touch")


if __name__ == "__main__":
    main()
