"""Compiled builds of the :mod:`repro.kernels.cpu` kernels.

Importing this module requires numba; :mod:`repro.kernels` guards the
import and records availability on the registry.  Compilation options:

* ``cache=True``  — machine code persists in ``__pycache__`` so only the
  first process ever pays the compile;
* ``nogil=True``  — kernels release the GIL, so the
  :class:`~repro.engine.executor.BatchExecutor` thread pool gets real
  CPU parallelism across shard chunks;
* **no** ``fastmath`` — the kernels' float64 expressions must stay
  bit-identical to the numpy fallback.

Each kernel compiles lazily on first call, specialised per input dtype
(the engine serves int32/int64/uint64/float64 key domains).
"""

from __future__ import annotations

import numba

from . import cpu

_njit = numba.njit(cache=True, nogil=True)

validated_search = _njit(cpu.validated_search)
predict_interpolation = _njit(cpu.predict_interpolation)
predict_affine = _njit(cpu.predict_affine)
predict_rmi_linear = _njit(cpu.predict_rmi_linear)
predict_rmi_cubic = _njit(cpu.predict_rmi_cubic)
predict_rmi_radix_signed = _njit(cpu.predict_rmi_radix_signed)
predict_rmi_radix_unsigned = _njit(cpu.predict_rmi_radix_unsigned)
predict_radix_spline = _njit(cpu.predict_radix_spline)
fused_window_search = _njit(cpu.fused_window_search)
fused_point_search = _njit(cpu.fused_point_search)
fused_leaf_bounds_search = _njit(cpu.fused_leaf_bounds_search)
fused_const_bounds_search = _njit(cpu.fused_const_bounds_search)
