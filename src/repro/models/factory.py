"""Shard-local model fitting: the engine's two served index shapes.

The sharded engine fits one CDF model per shard, so model construction
has to work for *any* slice size — from a single key up to millions —
without the caller hand-tuning hyper-parameters per shard.  The RMI
builder scales its leaf count to the slice it is given (4096 leaves
over a 50-key shard is pure waste), which is exactly the per-partition
tuning argument of the Google-scale learned-index follow-ups.

The engine serves two model families, always corrected: interpolation
(the paper's cheap model, the default) and a linear-root RMI for skewed
slices where the interpolation window blows up; the layer is ``"R"``
(guaranteed-window ShiftTable) or ``"S"`` (compact layer).  The paper
harness keeps every family and the bare model: it assembles
:class:`~repro.core.corrected_index.CorrectedIndex` objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import CDFModel
from .interpolation import InterpolationModel
from .rmi import RMIModel


def _rmi_for(keys: np.ndarray) -> RMIModel:
    # ~64 keys per leaf, capped so tiny shards get tiny models
    leaves = int(min(4096, max(1, len(keys) // 64)))
    return RMIModel(keys, num_leaves=leaves)


#: Model families the engine serves, by name.
MODEL_FACTORIES = {
    "interpolation": InterpolationModel,
    "rmi": _rmi_for,
}

#: Correction layers the engine serves: every engine shard is corrected.
LAYER_MODES = ("R", "S")


def check_engine_shape(model, layer="R") -> None:
    """Raise ``ValueError`` naming ``model``/``layer`` unless the engine
    serves that shape (a family of :data:`MODEL_FACTORIES` and a layer
    of :data:`LAYER_MODES`)."""
    if not isinstance(model, str) or model not in MODEL_FACTORIES:
        raise ValueError(
            f"model {model!r} is not served by the engine; served "
            f"families: {tuple(MODEL_FACTORIES)}"
        )
    if layer not in LAYER_MODES:
        raise ValueError(
            f"layer {layer!r} is not served by the engine; served "
            f"layers: {LAYER_MODES}"
        )


@dataclass(frozen=True)
class IndexDecision:
    """A tuner's choice of model family and correction layer for one index.

    The value the per-shard tuner (``engine/autotune``) hands to
    :func:`build_corrected_index`: ``model`` is a name from
    :data:`MODEL_FACTORIES`, ``layer`` one of :data:`LAYER_MODES`, and
    ``layer_partitions`` is the paper's ``M`` (``None`` means ``M = N``).
    """

    model: str = "interpolation"
    layer: str = "R"
    layer_partitions: int | None = None

    def label(self) -> str:
        """Compact human-readable form, e.g. ``"rmi+R"`` (plan columns)."""
        return f"{self.model}+{self.layer}"


def make_model(kind: str, keys: np.ndarray) -> CDFModel:
    """Fit a model of family ``kind`` to a sorted key slice (shard-local)."""
    check_engine_shape(kind)
    return MODEL_FACTORIES[kind](keys)


def build_corrected_index(
    keys: np.ndarray,
    model: str | IndexDecision = "interpolation",
    layer: str = "R",
    layer_partitions: int | None = None,
    payload_bytes: int | None = None,
    name: str = "index",
):
    """Fit model + correction layer + data into one CorrectedIndex.

    The single construction path shared by :meth:`ShardedIndex.build`
    and the updatable shard backends, so a shard rebuilt after updates
    is configured exactly like the shard built at load time.  ``layer``
    is ``"R"`` (guaranteed-window ShiftTable) or ``"S"`` (compact layer).

    ``model`` may also be an :class:`IndexDecision` — the output of the
    cost-model tuner — in which case its model/layer/partition choices
    override the ``layer``/``layer_partitions`` arguments.  Raises
    ``ValueError`` for a shape the engine does not serve.
    """
    if isinstance(model, IndexDecision):
        layer = model.layer
        layer_partitions = model.layer_partitions
        model = model.model
    # local imports: models.factory is imported by core modules, so a
    # top-level core import here would be circular
    from ..core.compact import CompactShiftTable
    from ..core.corrected_index import CorrectedIndex
    from ..core.records import SortedData
    from ..core.shift_table import ShiftTable
    from ..hardware.machine import DEFAULT_PAYLOAD_BYTES

    check_engine_shape(model, layer)
    keys = np.asarray(keys)
    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    data = SortedData(keys, payload_bytes=payload_bytes, name=name)
    fitted = MODEL_FACTORIES[model](keys)
    table = ShiftTable if layer == "R" else CompactShiftTable
    return CorrectedIndex(data, fitted, table.build(keys, fitted,
                                                    layer_partitions))
