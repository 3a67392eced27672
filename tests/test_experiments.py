"""The paper's artifacts as tier-1 tests.

``test_paper_claims_hold`` runs every artifact of
``repro.bench.paper.PAPER`` — driver, table, claim — at a small scale;
the claims live once, in the registry, and ``python -m repro paper
<artifact>`` checks the same ones at paper scale.  The driver tests
below pin the arguments ``paper`` never varies (dataset, method and
sweep selections) and that every driver measures the query count it is
given.
"""

import math

import pytest

from repro.bench import experiments
from repro.bench.paper import FIG9_MODES, PAPER, ClaimFailed, run

SMALL = dict(n=8000, num_queries=96, seed=17)
#: Fig. 2 needs room for ±Δ windows up to Δ = 10k; Fig. 6 runs at the
#: 40k keys its below-paper-scale >20x threshold was set at
SCALE = {
    "fig2": dict(SMALL, n=60_000, num_queries=24),
    "fig6": dict(SMALL, n=40_000),
}


@pytest.mark.parametrize("name", list(PAPER))
def test_paper_claims_hold(name):
    artifact, result, n = run(name, **SCALE.get(name, SMALL))
    assert artifact.render(result)
    artifact.claim(result, n)


def test_claims_name_the_cell_that_broke():
    artifact, result, n = run("table1")
    result["corrected"][2] += 1
    with pytest.raises(ClaimFailed, match=r"corrected\[36\]: got 38"):
        artifact.claim(result, n)


def test_unknown_artifact_is_an_error():
    with pytest.raises(KeyError, match="no paper artifact 'fig5'"):
        run("fig5")


# ----------------------------------------------------------------------
# driver arguments
# ----------------------------------------------------------------------
def test_table2_driver_smoke():
    datasets, methods = ("uden32", "wiki64"), ("BS", "IM", "IM+ShiftTable",
                                               "RMI")
    rows = experiments.table2(datasets=datasets, methods=methods,
                              n=SMALL["n"], num_queries=96,
                              seed=SMALL["seed"])
    assert [(m.dataset, m.method) for m in rows] == [
        (ds, method) for ds in datasets for method in methods
    ]
    # 96 queries, the first quarter warms the simulated caches
    assert {(m.num_keys, m.queries) for m in rows} == {(SMALL["n"], 72)}


def test_table2_reports_na_cells():
    rows = experiments.table2(
        datasets=("wiki64",), methods=("ART", "FAST"),
        n=SMALL["n"], num_queries=32, seed=SMALL["seed"],
    )
    assert all(not m.available for m in rows)
    assert all(math.isnan(m.ns_per_lookup) for m in rows)


def test_fig2_driver_shapes():
    rows = experiments.fig2_local_search(
        n=60_000, errors=(10, 100, 1000), num_queries=24, seed=SMALL["seed"]
    )
    assert {r["method"] for r in rows} == {
        "Linear", "Binary", "Exponential", "Binary w/o model", "FAST",
        "DRAM latency",
    }
    assert {r["error"] for r in rows} == {10, 100, 1000, None}


def test_fig9_driver_modes():
    rows = experiments.fig9_layer_size(
        datasets=("wiki64",), n=SMALL["n"], num_queries=64, seed=SMALL["seed"]
    )
    assert [(r["dataset"], r["mode"]) for r in rows] == [
        ("wiki64", mode) for mode in FIG9_MODES
    ]


def test_ablation_cost_model_driver():
    rows = experiments.ablation_cost_model(
        datasets=("wiki64",), n=SMALL["n"], seed=SMALL["seed"]
    )
    assert [r["dataset"] for r in rows] == ["wiki64"]


def test_ablation_local_threshold_driver():
    rows = experiments.ablation_local_threshold(
        thresholds=(0, 8), dataset="wiki64", n=SMALL["n"], seed=SMALL["seed"]
    )
    assert len(rows) == 2
    assert all(r["ns"] > 0 for r in rows)


def test_ablation_sampling_driver():
    rows = experiments.ablation_sampling(
        fractions=(0.05, 1.0), dataset="wiki64", n=SMALL["n"],
        seed=SMALL["seed"],
    )
    assert [r["fraction"] for r in rows] == [0.05, 1.0]


def test_ablation_monotonicity_driver():
    rows = experiments.ablation_monotonicity(
        dataset="face64", n=SMALL["n"], seed=SMALL["seed"]
    )
    # one monotone spline against two RMIs, whose roots are not
    assert [r["is_monotone"] for r in rows] == [True, False, False]


def test_ablation_updates_driver():
    r = experiments.ablation_updates(
        dataset="wiki64", n=SMALL["n"], num_inserts=200, seed=SMALL["seed"]
    )
    assert r["inserts"] == r["pending"] == 200


def test_ablation_pgm_driver():
    rows = experiments.ablation_pgm(
        dataset="face64", n=SMALL["n"], seed=SMALL["seed"]
    )
    assert [(r["model"].split("[")[0], r["shift_table"]) for r in rows] == [
        (model, layered) for model in ("PGM", "RS", "RMI")
        for layered in (False, True)
    ]


@pytest.mark.parametrize("driver", [
    "ablation_cost_model", "ablation_local_threshold", "ablation_sampling",
    "ablation_monotonicity", "ablation_pgm", "ablation_query_skew",
    "ablation_related_work",
])
def test_ablation_drivers_measure_the_passed_query_count(driver,
                                                         monkeypatch):
    measured = []
    real = experiments.measure_index

    def spy(index, data, queries, *args, **kwargs):
        measured.append(len(queries))
        return real(index, data, queries, *args, **kwargs)

    monkeypatch.setattr(experiments, "measure_index", spy)
    monkeypatch.setenv("REPRO_QUERIES", "64")  # the argument must win
    getattr(experiments, driver)(n=4000, num_queries=40, seed=SMALL["seed"])
    assert measured and set(measured) == {40}
