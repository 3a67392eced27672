"""Sharded, vectorised batch-query engine (ROADMAP: scale the repro).

Composes the repo's existing pieces end-to-end for throughput-oriented
serving: :class:`ShardedIndex` range-partitions the keys and fits a
shard-local model + Shift-Table correction per shard;
:class:`BatchExecutor` routes, groups and executes whole query batches
through the vectorised predict → correct → bounded-search pipeline;
:class:`ExecutionPlan` is the inspectable EXPLAIN of a batch;
:class:`ShardTuner` (``auto_tune=``/``retune()``) runs the §3.9 cost
model per shard, picking model family, layer mode and storage backend
from each shard's local keys and observed read/write mix.

>>> from repro.engine import ShardedIndex, BatchExecutor
>>> index = ShardedIndex.build(keys, num_shards=8, model="interpolation")
>>> positions = BatchExecutor(index).lookup_batch(queries)
"""

from ..models.factory import LAYER_MODES
from .autotune import (
    AutoTuneConfig,
    ShardDecision,
    ShardTuner,
    decision_from_config,
)
from .backends import (
    BACKEND_KINDS,
    BackendConfig,
    FenwickBackend,
    GappedBackend,
    ShardBackend,
    ShardStats,
    StaticBackend,
    make_backend,
)
from .durability import (
    DurabilityError,
    DurabilityManager,
    is_durable_dir,
)
from .executor import MODES, BatchExecutor
from .persist import (
    FORMAT_VERSION,
    IndexPersistError,
    load_shard_segment,
    save_shard_segment,
)
from .wal import WAL_SYNC_MODES, WalError, WalRecord, WalWriter, read_wal
from .plan import ExecutionPlan, ShardSlice
from .sharded import ShardedIndex, WriteEvent, snap_offsets

__all__ = [
    "AutoTuneConfig",
    "BACKEND_KINDS",
    "BackendConfig",
    "BatchExecutor",
    "DurabilityError",
    "DurabilityManager",
    "ExecutionPlan",
    "FenwickBackend",
    "GappedBackend",
    "LAYER_MODES",
    "MODES",
    "ShardBackend",
    "ShardDecision",
    "ShardSlice",
    "ShardStats",
    "ShardTuner",
    "ShardedIndex",
    "StaticBackend",
    "WAL_SYNC_MODES",
    "WalError",
    "WalRecord",
    "WalWriter",
    "WriteEvent",
    "FORMAT_VERSION",
    "IndexPersistError",
    "decision_from_config",
    "is_durable_dir",
    "load_shard_segment",
    "read_wal",
    "save_shard_segment",
    "snap_offsets",
]
