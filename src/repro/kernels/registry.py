"""Kernel registry: which implementation of each hot-path kernel is live.

The hot path has two implementations — a numba ``@njit(cache=True,
nogil=True)`` build of every kernel and a guaranteed pure-numpy fallback
(search kernels here; predict/correct on the model and layer objects) —
and exactly one of them is *live* at any moment.  The registry
is the single source of truth for that choice, so backends, sanitizers,
the linter and the benchmarks can all introspect (and force) which path
their numbers came from instead of guessing from import side effects.

Mode semantics
--------------
``auto``  — numba when importable, numpy otherwise (the import-time pick);
``numba`` — require the compiled path (``KernelUnavailableError`` if the
            container has no numba);
``numpy`` — force the fallback even when numba is importable (used by the
            parity suite and the benchmark baseline).

``REPRO_KERNELS`` in the environment seeds the mode at import time; an
unsatisfiable request (``REPRO_KERNELS=numba`` without numba installed)
falls back to numpy with a warning rather than poisoning every import.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

KERNEL_MODES = ("auto", "numba", "numpy")


class KernelUnavailableError(RuntimeError):
    """A kernel mode was forced that this environment cannot provide."""


@dataclass
class KernelEntry:
    """One named kernel with its per-backend implementations."""

    name: str
    #: None for the predict/fused kernels, which only exist compiled
    #: (the numpy pipeline runs those steps on the model/layer objects)
    numpy_impl: Callable | None = None
    numba_impl: Callable | None = None
    description: str = ""
    #: the uncompiled python source of the numba kernel (same algorithm,
    #: callable without numba) — the parity suite runs it interpreted
    python_impl: Callable | None = None

    def resolve(self, use_numba: bool) -> tuple[str, Callable]:
        """``(implementation_name, callable)`` for the requested backend."""
        if use_numba and self.numba_impl is not None:
            return "numba", self.numba_impl
        return "numpy", self.numpy_impl


@dataclass
class KernelRegistry:
    """All hot-path kernels plus the process-wide mode switch."""

    numba_available: bool = False
    _mode: str = "auto"
    _entries: dict[str, KernelEntry] = field(default_factory=dict)

    # -- registration --------------------------------------------------
    def register(
        self,
        name: str,
        numpy_impl: Callable | None = None,
        numba_impl: Callable | None = None,
        description: str = "",
        python_impl: Callable | None = None,
    ) -> KernelEntry:
        """Index a kernel; re-registration under the same name is an error."""
        if name in self._entries:
            raise ValueError(f"kernel {name!r} registered twice")
        entry = KernelEntry(name, numpy_impl, numba_impl, description,
                            python_impl)
        self._entries[name] = entry
        return entry

    # -- mode ----------------------------------------------------------
    @property
    def mode(self) -> str:
        """The requested mode (``auto``/``numba``/``numpy``)."""
        return self._mode

    def effective_mode(self) -> str:
        """The backend actually serving calls right now."""
        if self._mode == "numpy":
            return "numpy"
        if self._mode == "numba":
            return "numba"
        return "numba" if self.numba_available else "numpy"

    def set_mode(self, mode: str, strict: bool = True) -> str:
        """Switch the live backend; returns the effective mode.

        ``strict=True`` (an explicit ``set_kernel_mode("numba")``) raises
        :class:`KernelUnavailableError` when numba is requested but not
        importable; ``strict=False`` (the import-time env seed) warns and
        degrades to the guaranteed fallback.
        """
        if mode not in KERNEL_MODES:
            raise ValueError(
                f"kernel mode must be one of {KERNEL_MODES}, got {mode!r}"
            )
        if mode == "numba" and not self.numba_available:
            if strict:
                raise KernelUnavailableError(
                    "numba kernels requested but numba is not importable "
                    "in this environment; install numba or use "
                    "mode 'auto' or 'numpy'"
                )
            warnings.warn(
                "REPRO_KERNELS=numba but numba is not importable; "
                "falling back to the pure-numpy kernels",
                RuntimeWarning,
                stacklevel=2,
            )
            mode = "numpy"
        self._mode = mode
        return self.effective_mode()

    # -- resolution ----------------------------------------------------
    def get(self, name: str) -> Callable:
        """The live callable for kernel ``name`` under the current mode."""
        entry = self._entries[name]
        return entry.resolve(self.effective_mode() == "numba")[1]

    def implementation(self, name: str) -> str:
        """``"numba"`` or ``"numpy"``: which impl ``get(name)`` returns."""
        entry = self._entries[name]
        return entry.resolve(self.effective_mode() == "numba")[0]

    def entry(self, name: str) -> KernelEntry:
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    # -- introspection -------------------------------------------------
    def describe(self) -> list[dict[str, object]]:
        """One row per kernel: name, live impl, compiled availability."""
        return [
            {
                "kernel": name,
                "live": self.implementation(name),
                "has_numba": self._entries[name].numba_impl is not None,
                "description": self._entries[name].description,
            }
            for name in self.names()
        ]

    def to_dict(self) -> dict[str, object]:
        """Stable JSON-ready summary (benchmarks embed this in results)."""
        return {
            "mode": self._mode,
            "effective_mode": self.effective_mode(),
            "numba_available": self.numba_available,
            "kernels": self.describe(),
        }
