"""The extra ablation drivers."""

from repro.bench import experiments

SMALL = dict(n=8000, seed=23)


def test_ablation_entry_width_tracks_model_accuracy():
    rows = experiments.ablation_entry_width(dataset="wiki64", **SMALL)
    by = {r["model"]: r for r in rows}
    # the dummy IM model drifts by thousands of records; a tuned spline
    # drifts by tens -> the auto-chosen entry narrows accordingly (§3.9)
    assert by["IM"]["entry_bytes"] >= by["RS[eps=32,r=18]"]["entry_bytes"]
    for r in rows:
        assert r["entry_bytes"] in (2, 4, 8, 16)
        assert r["max_abs_drift"] < (1 << (8 * (r["entry_bytes"] // 2) - 1))


def test_ablation_query_skew_layer_keeps_lead():
    rows = experiments.ablation_query_skew(
        dataset="face64", n=SMALL["n"], num_queries=128, seed=SMALL["seed"]
    )
    assert {r["workload"] for r in rows} == {
        "uniform-keys", "zipf-keys", "uniform-domain",
    }
    for r in rows:
        assert r["correct"]
        assert r["ns_with_layer"] < r["ns_without"], r["workload"]


def test_ablation_query_skew_hot_keys_are_cheaper():
    rows = experiments.ablation_query_skew(
        dataset="face64", n=SMALL["n"], num_queries=128, seed=SMALL["seed"]
    )
    by = {r["workload"]: r for r in rows}
    # repeated hot keys keep their lines cached
    assert by["zipf-keys"]["ns_with_layer"] <= by["uniform-keys"]["ns_with_layer"]
