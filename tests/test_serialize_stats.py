"""Layer/model persistence and the §2.4/§3.6 dataset diagnostics."""

import numpy as np
import pytest

from repro.core.compact import CompactShiftTable
from repro.core.corrected_index import CorrectedIndex
from repro.core.records import SortedData
from repro.core.serialize import (
    SERIALIZABLE_MODELS,
    IndexPersistError,
    load_layer,
    load_model,
    save_layer,
    save_model,
)
from repro.core.shift_table import ShiftTable
from repro.datasets import load
from repro.datasets.stats import (
    burstiness,
    congestion_profile,
    duplication_ratio,
    gap_tail_index,
)
from repro.models import FunctionModel, InterpolationModel, make_model

from helpers import PAPER_MODELS

N = 20_000


@pytest.fixture(scope="module")
def keys():
    return load("osmc64", N, seed=61)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def test_shift_table_roundtrip(tmp_path, keys):
    model = InterpolationModel(keys)
    layer = ShiftTable.build(keys, model)
    path = tmp_path / "layer.npz"
    save_layer(layer, path)
    loaded = load_layer(path)
    assert isinstance(loaded, ShiftTable)
    assert np.array_equal(loaded.deltas, layer.deltas)
    assert np.array_equal(loaded.widths, layer.widths)
    assert loaded.num_keys == layer.num_keys
    # the re-attached layer answers queries identically (§3.9 detachable)
    data = SortedData(keys)
    index = CorrectedIndex(data, model, loaded)
    qs = np.random.default_rng(0).choice(keys, 200)
    assert np.array_equal(index.lookup_batch(qs), data.lower_bound_batch(qs))


def test_compact_layer_roundtrip(tmp_path, keys):
    model = InterpolationModel(keys)
    layer = CompactShiftTable.build(keys, model, num_partitions=N // 10)
    path = tmp_path / "compact.npz"
    save_layer(layer, path)
    loaded = load_layer(path)
    assert isinstance(loaded, CompactShiftTable)
    assert np.array_equal(loaded.drifts, layer.drifts)
    assert loaded.mean_abs_error == layer.mean_abs_error


def test_load_layer_rejects_garbage(tmp_path, keys):
    path = tmp_path / "junk.npz"
    np.savez(path, kind=np.asarray("mystery"), version=np.asarray(1))
    with pytest.raises(ValueError, match="not a readable repro-layer"):
        load_layer(path)
    # a model file is a healthy artifact of the wrong kind
    save_model(InterpolationModel(keys), path)
    with pytest.raises(IndexPersistError, match="format='repro-model'"):
        load_layer(path)


def test_flipped_byte_is_refused(tmp_path, keys):
    """What the old per-object helpers could not pass: they stored no
    checksum, so one flipped delta silently shifted every window."""
    model = InterpolationModel(keys)
    path = tmp_path / "layer.npz"
    save_layer(ShiftTable.build(keys, model), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01  # inside the (uncompressed) delta array
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexPersistError, match="checksum|not a readable"):
        load_layer(path)
    assert [p.name for p in tmp_path.iterdir()] == ["layer.npz"]  # no .tmp


@pytest.mark.parametrize("family", list(PAPER_MODELS))
def test_every_model_family_roundtrips_through_a_file(tmp_path, keys, family):
    model = PAPER_MODELS[family](keys)
    path = tmp_path / f"{family}.npz"
    if family not in SERIALIZABLE_MODELS:
        # served families only; the refusal leaves no file behind
        with pytest.raises(TypeError, match=type(model).__name__):
            save_model(model, path)
        assert list(tmp_path.iterdir()) == []
        return
    save_model(model, path)
    loaded = load_model(path)
    assert type(loaded) is type(model)
    sample = keys[:: N // 100]
    assert np.array_equal(
        loaded.predict_pos_batch(sample), model.predict_pos_batch(sample)
    )


def test_simple_model_roundtrip(tmp_path, keys):
    for model in (InterpolationModel(keys), make_model("rmi", keys)):
        path = tmp_path / f"{model.name}.npz"
        save_model(model, path)
        loaded = load_model(path)
        sample = keys[:: N // 100]
        assert np.array_equal(
            loaded.predict_pos_batch(sample), model.predict_pos_batch(sample)
        )


def test_interpolation_roundtrip_is_bit_identical(tmp_path):
    # regression: _max was reconstructed as num_keys / _scale, which
    # need not invert the builder's num_keys / span bit-exactly
    keys = np.asarray([3, 7, 8, 13], dtype=np.uint64)
    model = InterpolationModel(keys)
    path = tmp_path / "im.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded._min == model._min
    assert loaded._max == model._max
    assert loaded._scale == model._scale
    probes = np.asarray([0, 3, 5, 8, 13, 14, (1 << 50)], dtype=np.uint64)
    for q in probes:
        assert loaded.predict_pos(q) == model.predict_pos(q)
    assert np.array_equal(
        loaded.predict_pos_batch(probes), model.predict_pos_batch(probes)
    )


def test_simple_model_roundtrip_bit_identical_many_datasets(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(25):
        n = int(rng.integers(2, 2_000))
        keys = np.sort(rng.integers(0, 1 << 48, n, dtype=np.uint64))
        probes = rng.integers(0, 1 << 48, 64, dtype=np.uint64)
        for model in (InterpolationModel(keys), make_model("rmi", keys)):
            path = tmp_path / f"m{trial}.npz"
            save_model(model, path)
            loaded = load_model(path)
            assert np.array_equal(
                loaded.predict_pos_batch(probes),
                model.predict_pos_batch(probes),
            ), (trial, model.name)
            if isinstance(model, InterpolationModel):
                assert loaded._max == model._max


def test_degenerate_interpolation_roundtrip(tmp_path):
    keys = np.full(5, 42, dtype=np.uint64)  # span 0 => scale 0
    model = InterpolationModel(keys)
    path = tmp_path / "flat.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded._max == model._max == loaded._min
    assert loaded.predict_pos(42) == model.predict_pos(42) == 0.0


def test_save_model_rejects_models_without_a_codec(tmp_path, keys):
    model = FunctionModel(lambda q: 0.0, len(keys))
    with pytest.raises(TypeError, match="no state codec"):
        save_model(model, tmp_path / "fn.npz")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# dataset diagnostics
# ----------------------------------------------------------------------
def test_duplication_ratio_matches_table2_pattern():
    assert duplication_ratio(load("osmc64", N, seed=61)) > 0.0
    assert duplication_ratio(load("face64", N, seed=61)) == 0.0
    assert duplication_ratio(np.asarray([1], dtype=np.uint64)) == 0.0


def test_gap_tail_heavier_for_real_world():
    smooth = gap_tail_index(load("norm64", N, seed=61))
    rough = gap_tail_index(load("face64", N, seed=61))
    assert rough < smooth  # heavier tail = smaller exponent


def test_gap_tail_small_input_is_nan():
    out = gap_tail_index(np.arange(10, dtype=np.uint64))
    assert np.isnan(out)


def test_congestion_profile_flags_osmc(keys):
    osmc = congestion_profile(keys)
    uden = congestion_profile(load("uden64", N, seed=61))
    assert osmc.max > uden.max
    assert osmc.eq8_error > uden.eq8_error
    assert osmc.is_congested
    assert not uden.is_congested


def test_burstiness_orders_datasets():
    wiki = burstiness(load("wiki64", N, seed=61))
    uden = burstiness(load("uden64", N, seed=61))
    assert wiki > 2 * uden
    with pytest.raises(ValueError):
        burstiness(np.arange(10, dtype=np.uint64), buckets=100)
