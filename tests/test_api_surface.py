"""API-surface contract: every public symbol exists, is importable, and
is documented (deliverable (e): doc comments on every public item)."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.models",
    "repro.search",
    "repro.algorithmic",
    "repro.hardware",
    "repro.datasets",
    "repro.bench",
    "repro.cli",
    "repro.core.serialize",
    "repro.engine",
    "repro.engine.persist",
    "repro.engine.durability",
    "repro.serve",
    "repro.net",
    "repro.analysis",
]

#: The PR-5 contract: the root namespace is the package's public API.
#: Growing it is a deliberate act (update this snapshot in the same PR);
#: shrinking or renaming it is a breaking change.
EXPECTED_ROOT_ALL = {
    # the facade (PR 5): one front door over the whole stack
    "Index", "IndexConfig", "open",
    # paper-layer primitives
    "ShiftTable", "CompactShiftTable", "CorrectedIndex", "SortedData",
    "UpdatableCorrectedIndex", "FenwickTree",
    # cost model + tuning
    "LatencyCurve", "measure_latency_curve", "expected_error",
    "latency_with_layer", "latency_without_layer", "tune", "tune_rmi",
    "tune_radix_spline",
    # models
    "CDFModel", "InterpolationModel", "LinearModel", "RMIModel",
    "RadixSplineModel", "PGMModel",
    # hardware simulation
    "MachineSpec", "MemoryHierarchy", "SimTracker",
    "__version__",
}


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_are_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


def _assert_methods_documented(*classes):
    """Every public method of ``classes`` must carry a docstring."""
    for cls in classes:
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_") or member.__qualname__.startswith(
                    ("object.", "dict.", "tuple.")):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} undocumented"


def test_public_classes_document_their_methods():
    """Public methods of the core classes must carry docstrings."""
    from repro import (
        CompactShiftTable,
        CorrectedIndex,
        MachineSpec,
        ShiftTable,
        SortedData,
    )
    from repro.core.range_query import RangeQueryEngine

    _assert_methods_documented(
        ShiftTable, CompactShiftTable, CorrectedIndex, SortedData,
        MachineSpec, RangeQueryEngine,
    )


def test_engine_and_serve_classes_document_their_methods():
    """Every public method of the engine/serve API carries a docstring
    (the PR-4 docstring-audit contract for the newer layers)."""
    from repro.engine import (
        AutoTuneConfig,
        BatchExecutor,
        ExecutionPlan,
        ShardBackend,
        ShardDecision,
        ShardSlice,
        ShardStats,
        ShardTuner,
        ShardedIndex,
        WriteEvent,
    )
    from repro.serve import (
        IndexServer,
        MicroBatcher,
        ResultCache,
        ServerStats,
    )

    _assert_methods_documented(
        ShardedIndex, BatchExecutor, ShardBackend, ShardTuner,
        AutoTuneConfig, ShardDecision, ShardStats, ShardSlice,
        ExecutionPlan, WriteEvent, IndexServer, MicroBatcher,
        ResultCache, ServerStats,
    )


def test_root_namespace_snapshot():
    """``repro.__all__`` matches the published surface exactly."""
    import repro

    assert set(repro.__all__) == EXPECTED_ROOT_ALL
    assert len(repro.__all__) == len(set(repro.__all__)), "duplicates"


def test_facade_classes_document_their_methods():
    """The PR-5 front door carries the same docstring contract as the
    engine/serve layers."""
    from repro import Index, IndexConfig
    from repro.engine.persist import IndexPersistError

    _assert_methods_documented(Index, IndexConfig, IndexPersistError)


def test_one_persistence_surface():
    """ISSUE 22: the whole-engine archive and the per-object helpers are
    gone — from the modules, not just from ``__all__`` — and what
    replaced them is exported."""
    import repro.core
    import repro.engine
    import repro.engine.persist

    for module, names in (
        (repro.engine, ("save_index", "load_index", "read_manifest")),
        (repro.engine.persist, ("save_index", "load_index", "read_manifest",
                                "FORMAT_NAME")),
        (repro.core, ("save_shift_table", "save_compact_shift_table",
                      "save_simple_model", "load_simple_model")),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__
    assert {"save_layer", "load_layer", "save_model", "load_model"} \
        <= set(repro.core.__all__)
    assert issubclass(repro.engine.DurabilityError,
                      repro.engine.IndexPersistError)


def test_facade_and_engine_agree(tmp_path):
    """The facade is delegation: deep-import answers match it exactly,
    including across a save/open cycle."""
    import numpy as np

    import repro
    from repro.engine import BatchExecutor

    keys = np.sort(
        np.random.default_rng(0).integers(0, 1 << 40, 5_000, dtype=np.uint64)
    )
    index = repro.Index.build(keys, num_shards=3)
    queries = np.random.default_rng(1).choice(keys, 500)
    deep = BatchExecutor(index.engine).lookup_batch(queries)
    assert np.array_equal(index.lookup_many(queries), deep)
    index.save(tmp_path / "x.npz")
    reopened = repro.open(tmp_path / "x.npz")
    assert np.array_equal(reopened.lookup_many(queries), deep)


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_package_doctest_example():
    """The module docstring's usage example must actually run."""
    import doctest

    import repro

    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
