"""The §3.9 deployment story: the Shift-Table layer is detachable.

"the Shift-Table layer can be disabled to free up memory space on
run-time while the model can still be used."  This example plays that
out: build once, persist the layer next to the (tiny) model, serve
queries with the layer attached, detach it under memory pressure and
keep serving — correctly, just slower — then re-attach from disk.

Run:  python examples/detachable_layer.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import CorrectedIndex, InterpolationModel, ShiftTable, SortedData
from repro.bench.workload import env_num_keys, uniform_over_keys
from repro.bench.harness import measure_index
from repro.core.serialize import (
    load_layer,
    load_model,
    save_layer,
    save_model,
)
from repro.datasets import load
from repro.hardware.machine import MachineSpec


def main() -> None:
    n = env_num_keys()
    keys = load("amzn64", n)
    data = SortedData(keys, name="amzn64")
    machine = MachineSpec.paper().scaled_for(n, data.record_bytes)
    queries = uniform_over_keys(keys, 512, seed=11)

    with tempfile.TemporaryDirectory() as tmp:
        layer_path = Path(tmp) / "amzn64.layer.npz"
        model_path = Path(tmp) / "amzn64.model.npz"

        # ---- build once, persist ------------------------------------
        model = InterpolationModel(keys)
        layer = ShiftTable.build(keys, model)
        save_model(model, model_path)  # any model family, checksummed
        save_layer(layer, layer_path)
        print(f"persisted model ({model_path.stat().st_size} B) and layer "
              f"({layer_path.stat().st_size / 1e6:.1f} MB on disk, "
              f"{layer.size_bytes() / 1e6:.1f} MB in memory)")

        # ---- serve with the layer attached ---------------------------
        model = load_model(model_path)
        attached = CorrectedIndex(data, model, load_layer(layer_path))
        m1 = measure_index(attached, data, queries, machine)
        print(f"with layer:    {m1.ns_per_lookup:7.1f} ns/lookup "
              f"(correct={m1.correct})")

        # ---- memory pressure: detach, keep serving -------------------
        detached = CorrectedIndex(data, model, None)
        m2 = measure_index(detached, data, queries, machine)
        print(f"without layer: {m2.ns_per_lookup:7.1f} ns/lookup "
              f"(correct={m2.correct}) — "
              f"{layer.size_bytes() / 1e6:.1f} MB freed, "
              f"{m2.ns_per_lookup / m1.ns_per_lookup:.1f}x slower")

        # ---- re-attach from disk -------------------------------------
        reattached = CorrectedIndex(data, model, load_layer(layer_path))
        m3 = measure_index(reattached, data, queries, machine)
        print(f"re-attached:   {m3.ns_per_lookup:7.1f} ns/lookup "
              f"(correct={m3.correct})")
        assert m1.correct and m2.correct and m3.correct
        assert np.isclose(m1.ns_per_lookup, m3.ns_per_lookup, rtol=0.2)


if __name__ == "__main__":
    main()
