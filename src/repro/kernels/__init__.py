"""Compiled hot-path kernels with a guaranteed pure-numpy fallback.

The batch pipeline (``predict → correct → bounded-search``) has two
interchangeable implementations of every kernel:

* **numba** — per-lane loops compiled with ``@njit(cache=True,
  nogil=True)`` (:mod:`~repro.kernels.cpu` source compiled by
  :mod:`~repro.kernels.numba_backend`); ``nogil`` gives the
  ``BatchExecutor`` thread pool real CPU parallelism;
* **numpy** — always available, bit-identical: the model and layer
  objects' own array passes for predict/correct, ending in the
  lane-parallel search kernels of :mod:`~repro.kernels.numpy_impl`.

Which one is live is decided once, here, and recorded in
:data:`REGISTRY` (a :class:`~repro.kernels.registry.KernelRegistry`) so
backends, sanitizers, the linter and the benchmarks can introspect and
force the choice:

>>> from repro.kernels import REGISTRY, kernel_mode, set_kernel_mode
>>> kernel_mode() in ("numba", "numpy")
True
>>> set_kernel_mode("numpy")      # force the fallback (parity baselines)
'numpy'
>>> set_kernel_mode("auto")       # back to the import-time pick
... # doctest: +SKIP

``REPRO_KERNELS=auto|numba|numpy`` seeds the mode at import time.
Requesting ``numba`` without numba installed raises
:class:`~repro.kernels.registry.KernelUnavailableError` from
:func:`set_kernel_mode` but only warns when it comes from the
environment seed.
"""

from __future__ import annotations

import os
import warnings

from . import cpu, numpy_impl
from .registry import (
    KERNEL_MODES,
    KernelEntry,
    KernelRegistry,
    KernelUnavailableError,
)

try:
    from . import numba_backend

    numba_available = True
except ImportError:  # numba not in this environment: fallback only
    numba_backend = None  # type: ignore[assignment]
    numba_available = False

REGISTRY = KernelRegistry(numba_available=numba_available)

#: (registry name, function name shared by all backend modules, summary)
_KERNELS = (
    ("search.validated", "validated_search",
     "bounded search + §3.8 edge-validation fallback"),
    ("predict.interpolation", "predict_interpolation",
     "IM model: (key - min) * scale"),
    ("predict.affine", "predict_affine",
     "least-squares line: slope * key + intercept"),
    ("predict.rmi_linear", "predict_rmi_linear",
     "RMI, linear root: leaf select + leaf line"),
    ("predict.rmi_cubic", "predict_rmi_cubic",
     "RMI, cubic root: leaf select + leaf line"),
    ("predict.rmi_radix_signed", "predict_rmi_radix_signed",
     "RMI, radix root over signed keys"),
    ("predict.rmi_radix_unsigned", "predict_rmi_radix_unsigned",
     "RMI, radix root over uint64 keys (no int64 wrap)"),
    ("predict.radix_spline", "predict_radix_spline",
     "RadixSpline: segment lower bound + interpolation"),
    ("fused.window_search", "fused_window_search",
     "R-mode: partition + window + validated search in one pass"),
    ("fused.point_search", "fused_point_search",
     "S-mode: drift correction + ±radius validated search"),
    ("fused.leaf_bounds_search", "fused_leaf_bounds_search",
     "bare RMI: per-leaf error bounds + validated search"),
    ("fused.const_bounds_search", "fused_const_bounds_search",
     "bare RS/PGM: constant ±ε window + validated search"),
)

for _name, _attr, _doc in _KERNELS:
    REGISTRY.register(
        _name,
        # predict.*/fused.* have no numpy kernel: the numpy pipeline runs
        # those steps on the model/layer objects themselves
        numpy_impl=getattr(numpy_impl, _attr, None),
        numba_impl=(
            getattr(numba_backend, _attr) if numba_backend is not None
            else None
        ),
        description=_doc,
        python_impl=getattr(cpu, _attr),
    )


def kernel_mode() -> str:
    """The backend actually serving kernel calls (``numba``/``numpy``)."""
    return REGISTRY.effective_mode()


def set_kernel_mode(mode: str, strict: bool = True) -> str:
    """Switch the live backend process-wide; returns the effective mode."""
    return REGISTRY.set_mode(mode, strict=strict)


def describe_kernels() -> list[dict[str, object]]:
    """One introspection row per registered kernel."""
    return REGISTRY.describe()


_env_mode = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _env_mode:
    if _env_mode in KERNEL_MODES:
        REGISTRY.set_mode(_env_mode, strict=False)
    else:
        warnings.warn(
            f"REPRO_KERNELS={_env_mode!r} is not one of {KERNEL_MODES}; "
            "keeping 'auto'",
            RuntimeWarning,
        )

__all__ = [
    "KERNEL_MODES",
    "KernelEntry",
    "KernelRegistry",
    "KernelUnavailableError",
    "REGISTRY",
    "cpu",
    "describe_kernels",
    "kernel_mode",
    "numba_available",
    "numba_backend",
    "numpy_impl",
    "set_kernel_mode",
]
