"""Shared hypothesis strategies and query builders for the test suite.

Lives in a plain module (not ``conftest.py``) so test files can import it
explicitly: a bare ``from conftest import ...`` resolves to whichever
conftest pytest imported first, a collection-order landmine this module
sidesteps.  Fixtures stay in ``tests/conftest.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from repro.models import (
    MODEL_FACTORIES,
    HistogramModel,
    LinearModel,
    PGMModel,
    RadixSplineModel,
)

#: Every model family of the paper harness, by name.  The engine serves
#: the two of ``MODEL_FACTORIES`` and refuses the others by name.
PAPER_MODELS = {
    **MODEL_FACTORIES,
    "linear": LinearModel,
    "pgm": PGMModel,
    "radix_spline": lambda keys: RadixSplineModel(keys, radix_bits=8),
    "histogram": lambda keys: HistogramModel(keys, max(1, len(keys) // 4)),
}


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root`` with its bytes (a byte-identity probe)."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def sorted_uint_arrays(
    min_size: int = 1,
    max_size: int = 400,
    max_value: int = (1 << 48) - 1,
    allow_duplicates: bool = True,
):
    """Hypothesis strategy: sorted numpy uint64 arrays."""
    elements = st.integers(min_value=0, max_value=max_value)
    lists = st.lists(elements, min_size=min_size, max_size=max_size)
    if not allow_duplicates:
        lists = st.lists(
            elements, min_size=min_size, max_size=max_size, unique=True
        )

    def to_array(values: list[int]) -> np.ndarray:
        return np.sort(np.asarray(values, dtype=np.uint64))

    return lists.map(to_array)


def queries_for(keys: np.ndarray, rng_seed: int = 0, count: int = 64) -> np.ndarray:
    """Deterministic mixed query set: stored keys, neighbours, extremes."""
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(keys, size=min(count, len(keys)))
    neighbours = np.concatenate([picks, picks + 1, np.maximum(picks, 1) - 1])
    lo, hi = int(keys.min()), int(keys.max())
    extremes = np.asarray(
        [0, lo, max(lo - 1, 0), hi, hi + 1], dtype=np.uint64
    )
    return np.concatenate([neighbours, extremes]).astype(keys.dtype)
