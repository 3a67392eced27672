"""Learned indexes with optional correction layers (Figure 4, Alg. 1, §3.8).

:class:`CorrectedIndex` is the queryable composition of

* a :class:`~repro.core.records.SortedData` record array,
* a CDF model,
* an optional correction layer — R-mode :class:`ShiftTable` (guaranteed
  window → bounded linear/binary local search) or S-mode
  :class:`CompactShiftTable` (point estimate → linear/exponential), and
* a last-mile policy, including the §3.8 handling of non-monotone models:
  windows are validated at the edges and violated windows fall back to an
  honest (fully charged) exponential search outside the range.

The same class also expresses the *bare-model* baselines: with no layer,
a model that carries error bounds (RMI's per-leaf bounds, RS/PGM's ±ε)
searches its bounded window, and a boundless model (IM, single line) uses
exponential search around the prediction — matching the paper's setup for
``IM`` ("interpolation as a model ... exponential search around the
predicted key").
"""

from __future__ import annotations

import numpy as np

from ..hardware.tracker import NULL_TRACKER, NullTracker
from ..models.base import CDFModel, predicted_index, predicted_index_batch
from ..models.rmi import RMIModel
from ..search.batch import validated_lower_bound_batch
from ..search.exponential import exponential_lower_bound
from ..search.local import (
    LINEAR_TO_BINARY_THRESHOLD,
    bounded_local_search,
    unbounded_local_search,
)
from .compact import CompactShiftTable
from .records import SortedData, coerce_query_array, normalize_query_dtype
from .shift_table import ShiftTable


def validated_window_search(
    data: np.ndarray,
    region,
    tracker: NullTracker = NULL_TRACKER,
    q=0,
    start: int = 0,
    width: int = 0,
    threshold: int = LINEAR_TO_BINARY_THRESHOLD,
) -> int:
    """Bounded window search that survives invalid windows (§3.8).

    Runs the normal bounded local search, then checks the window edges:
    if the answer may lie outside (non-monotone model, or a bare-model
    bound that does not cover a duplicate run), it gallops out from the
    violated edge.  The extra probes are charged to the tracker.
    """
    n = len(data)
    lo = min(max(start, 0), n)
    # clamp to [lo, n]: a grossly mispredicted window (negative or past
    # the end) degenerates to the empty range at ``lo``, whose edge checks
    # below then recover the true position by galloping
    hi_excl = min(max(start + width + 1, lo), n)
    result = bounded_local_search(data, region, tracker, q, start, width, threshold)
    if result == lo and lo > 0:
        tracker.touch(region, lo - 1)
        tracker.instr(2)
        if data[lo - 1] >= q:
            return exponential_lower_bound(data, region, tracker, q, lo - 1)
    if result == hi_excl and hi_excl < n:
        tracker.touch(region, hi_excl)
        tracker.instr(2)
        if data[hi_excl] < q:
            return exponential_lower_bound(data, region, tracker, q, hi_excl)
    return result


class CorrectedIndex:
    """Model + optional Shift-Table layer over a sorted record array."""

    def __init__(
        self,
        data: SortedData,
        model: CDFModel,
        layer: ShiftTable | CompactShiftTable | None = None,
        name: str | None = None,
        threshold: int = LINEAR_TO_BINARY_THRESHOLD,
    ) -> None:
        if model.num_keys != len(data):
            raise ValueError("model and data sizes disagree")
        if layer is not None and layer.num_keys != len(data):
            raise ValueError("layer and data sizes disagree")
        self.data = data
        self.model = model
        self.layer = layer
        self.threshold = threshold
        #: §3.8 validity: windows from a non-monotone model need checking.
        #: Merged partitions (M < N) are also validated: a non-indexed
        #: query can carry a prediction outside the span the partition's
        #: own keys were built from, which the paper's M = N argument
        #: (§3.1) does not cover.
        self.validate = not model.is_monotone or (
            isinstance(layer, ShiftTable)
            and layer.num_partitions != layer.num_keys
        )
        if name is None:
            suffix = ""
            if isinstance(layer, ShiftTable):
                suffix = "+ShiftTable"
            elif isinstance(layer, CompactShiftTable):
                suffix = "+ShiftTable[S]"
            name = model.name + suffix
        self.name = name

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(self, q, tracker: NullTracker = NULL_TRACKER) -> int:
        """Position of the first record with key >= q (Algorithm 1)."""
        keys = self.data.keys
        region = self.data.region
        n = len(keys)
        pred_float = self.model.predict_pos(q, tracker)

        if isinstance(self.layer, ShiftTable):
            start, width = self.layer.window(pred_float, tracker)
            if self.validate:
                return validated_window_search(
                    keys, region, tracker, q, start, width, self.threshold
                )
            return bounded_local_search(
                keys, region, tracker, q, start, width, self.threshold
            )

        if isinstance(self.layer, CompactShiftTable):
            corrected = self.layer.correct(pred_float, tracker)
            return unbounded_local_search(
                keys, region, tracker, q, corrected, self.layer.mean_abs_error
            )

        # bare model
        pred = predicted_index(pred_float, n)
        bounds = self._model_bounds(q, tracker)
        if bounds is not None:
            err_lo, err_hi = bounds
            start = pred + err_lo
            width = err_hi - err_lo
            return validated_window_search(
                keys, region, tracker, q, start, width, self.threshold
            )
        return exponential_lower_bound(keys, region, tracker, q, pred)

    def _model_bounds(self, q, tracker: NullTracker) -> tuple[int, int] | None:
        """Signed error bounds if the model offers them (RMI, RS, PGM)."""
        model = self.model
        if isinstance(model, RMIModel):
            return model.error_bounds(q, tracker)
        error_bounds = getattr(model, "error_bounds", None)
        if error_bounds is not None:
            return error_bounds()
        return None

    def lookup_batch(self, queries: np.ndarray) -> np.ndarray:
        """Untraced lookups for a batch of queries (tests and examples)."""
        return np.fromiter(
            (self.lookup(q) for q in queries), dtype=np.int64, count=len(queries)  # repro: noqa[RPR501] — the scalar Algorithm-1 loop is the parity oracle the kernels are tested against
        )

    def lookup_batch_vectorized(self, queries: np.ndarray) -> np.ndarray:
        """Fully-vectorised batch lookup for every model/layer combination.

        Runs the whole predict → correct → bounded-search pipeline as
        numpy array passes (see :mod:`repro.search.batch`); there is no
        per-query Python loop on any path.  Results are element-wise
        identical to calling :meth:`lookup` per query:

        * **R-mode** — batch windows from the layer, lane-parallel
          bounded binary search, vectorised §3.8 edge validation.
        * **S-mode** — batch point correction, searched through a window
          of ± the layer's expected error with the same edge validation
          recovering the outliers.
        * **bare model with bounds** (RMI per-leaf, RS/PGM ±ε) — the
          bounds become the batch windows.
        * **boundless model** (IM, single line) — full-array
          ``searchsorted`` (the vectorised stand-in for per-query
          exponential search; same answers, no window to exploit).
        """
        keys = self.data.keys
        n = len(keys)
        queries, oob_high = normalize_query_dtype(queries, keys.dtype)
        if (
            queries.dtype.kind == "f"
            and keys.dtype.kind in "iu"
            and keys.dtype.itemsize >= 8
        ):
            # float queries against 64-bit integer keys would make every
            # kernel comparison promote the keys to float64 (silently
            # wrong above 2**53); convert exactly instead — ``q < k`` iff
            # ``ceil(q) <= k``, so positions are unchanged
            queries, oob_f = coerce_query_array(queries, keys.dtype)
            if oob_f is not None:
                oob_high = (oob_f if oob_high is None
                            else (oob_high | oob_f))
        if queries.size == 0:
            return np.empty(0, dtype=np.int64)
        result = self._lookup_batch_pipeline(keys, n, queries)
        if oob_high is not None:
            result[oob_high] = n
        return result

    def _lookup_batch_pipeline(
        self, keys: np.ndarray, n: int, queries: np.ndarray
    ) -> np.ndarray:
        pred = self.model.predict_pos_batch(queries)

        if isinstance(self.layer, ShiftTable):
            starts, widths = self.layer.window_batch(pred)
            return validated_lower_bound_batch(keys, queries, starts, widths)

        if isinstance(self.layer, CompactShiftTable):
            corrected = self.layer.correct_batch(pred)
            radius = max(int(np.ceil(self.layer.mean_abs_error)), 1)
            widths = np.full(queries.shape, 2 * radius, dtype=np.int64)
            return validated_lower_bound_batch(
                keys, queries, corrected - radius, widths
            )

        bounds = self._model_bounds_batch(queries)
        if bounds is not None:
            err_lo, err_hi = bounds
            starts = predicted_index_batch(pred, n) + err_lo
            return validated_lower_bound_batch(
                keys, queries, starts, err_hi - err_lo
            )
        return np.searchsorted(keys, queries, side="left").astype(np.int64)

    def _model_bounds_batch(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Vectorised :meth:`_model_bounds` (per-lane signed bounds)."""
        model = self.model
        if isinstance(model, RMIModel):
            return model.error_bounds_batch(queries)
        error_bounds = getattr(model, "error_bounds", None)
        if error_bounds is not None:
            err_lo, err_hi = error_bounds()
            shape = np.shape(queries)
            return (
                np.full(shape, err_lo, dtype=np.int64),
                np.full(shape, err_hi, dtype=np.int64),
            )
        return None

    # ------------------------------------------------------------------
    # accounting & tuning hooks
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Model plus (optional) layer footprint; excludes the data."""
        size = self.model.size_bytes()
        if self.layer is not None:
            size += self.layer.size_bytes()
        return size

    def build_info(self) -> dict[str, object]:
        """Structured description of the configuration (for reports)."""
        info: dict[str, object] = {
            "name": self.name,
            "model": self.model.name,
            "model_bytes": self.model.size_bytes(),
            "validate": self.validate,
        }
        if self.layer is not None:
            info["layer_bytes"] = self.layer.size_bytes()
            info["layer_partitions"] = self.layer.num_partitions
        return info
