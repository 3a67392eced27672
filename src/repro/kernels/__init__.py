"""Kernel names the benchmark ladder reads; the search is numpy-only.

The batch pipeline is one numpy composition —
``model.predict_pos_batch`` → ``layer.window_batch``/``correct_batch`` →
:func:`repro.search.batch.validated_search` — so there is no backend to
choose.  ``REGISTRY.get("search.validated")`` returns that search (its
``(data, queries, starts, widths, out)`` signature), and
``REGISTRY.effective_mode()`` names the backend in benchmark results.
"""

from __future__ import annotations

from ..search.batch import validated_search

numba_available = False


class _Registry:
    _kernels = {"search.validated": validated_search}

    def get(self, name: str):
        return self._kernels[name]

    def effective_mode(self) -> str:
        return "numpy"


REGISTRY = _Registry()

__all__ = ["REGISTRY", "numba_available"]
