"""The package's front door: one facade over the whole serving stack.

The library grew four layers — the paper-layer ``CorrectedIndex`` you
assemble by hand, the sharded batch engine, the updatable backends with
per-shard auto-tuning, and the asyncio serving front end — each with its
own construction idiom.  :class:`Index` puts one coherent API in front
of all of them, the way the learned-index systems we build on hide
their model hierarchies behind a single lookup interface (Kraska et
al.'s RMI; Abu-Libdeh et al.'s Bigtable integration):

>>> import numpy as np, repro
>>> keys = np.sort(np.random.default_rng(0).integers(0, 1 << 40, 100_000))
>>> index = repro.Index.build(keys, repro.IndexConfig(num_shards=4))
>>> int(index.lookup(keys[123])) == int(np.searchsorted(keys, keys[123]))
True

:class:`IndexConfig` consolidates every construction knob the deep
layers scattered across ``ShardedIndex.build``, the backend configs and
the auto-tuner, behind validation, presets
(:meth:`IndexConfig.from_preset`) and a round-trippable
``to_dict()/from_dict()``.  The facade exposes the full lifecycle —
``lookup / lookup_many / range / scan``, ``insert / delete / refresh /
retune``, ``save`` / :func:`repro.open <open>`, and
:meth:`Index.serve` for the asyncio front end.  The deep-import paths
(``repro.engine``, ``repro.serve``, ``repro.core``) keep working; the
facade is delegation, not replacement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core.records import coerce_query_array
from .engine.autotune import AutoTuneConfig
from .engine.backends import BACKEND_KINDS, BackendConfig
from .engine.executor import BatchExecutor
from .engine.sharded import ShardedIndex
from .engine.wal import WAL_SYNC_MODES
from .hardware.machine import DEFAULT_PAYLOAD_BYTES
from .models.factory import check_engine_shape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .serve.server import IndexServer

#: Version of the :class:`IndexConfig` dict layout (``to_dict``).
#: v2 added the ``durability`` field; v1 dicts load with it defaulted.
CONFIG_VERSION = 2

#: Named configuration profiles for :meth:`IndexConfig.from_preset`.
PRESETS: dict[str, dict] = {
    # read-dominated serving: rebuild-on-write shards keep reads as fast
    # as the read-only engine
    "read_heavy": {"backend": "static", "layer": "R"},
    # mixed read/write traffic: ALEX-style gapped shards absorb writes
    # at O(nearest gap) instead of O(shard)
    "mixed": {"backend": "gapped", "layer": "R"},
    # let the §3.9 cost model pick the model family per shard at build
    # time, and the backend too at retune() time
    "auto": {"backend": "gapped", "layer": "R", "auto_tune": True},
}


@dataclass(frozen=True)
class IndexConfig:
    """Every construction knob of the engine, in one validated place.

    Consolidates what used to be scattered across
    ``ShardedIndex.build(...)`` kwargs, ``BackendConfig`` and
    ``AutoTuneConfig``:

    * ``num_shards`` — range partitions (run-aligned cuts);
    * ``model`` — shard-local model family: ``"interpolation"`` (the
      paper's cheap model) or ``"rmi"`` (for skewed data where the
      interpolation window blows up);
    * ``layer`` — correction mode: ``"R"`` (guaranteed-window
      Shift-Table) or ``"S"`` (compact layer) — the engine always
      corrects (any other model or layer raises ``ValueError``);
    * ``layer_partitions`` — the paper's ``M`` per shard (``None`` =
      ``M = N_shard``);
    * ``backend`` — shard storage engine: ``"static"`` | ``"gapped"``
      | ``"fenwick"``;
    * ``density`` / ``merge_threshold`` — gapped slack / fenwick merge
      trigger;
    * ``payload_bytes`` — simulated record payload stride;
    * ``auto_tune`` — ``False``, ``True`` (default
      :class:`~repro.engine.autotune.AutoTuneConfig`) or an explicit
      ``AutoTuneConfig``: run the §3.9 cost model per shard;
    * ``workers`` — thread-pool width for cross-shard batch execution;
    * ``durability`` — WAL fsync policy when the index is built with a
      ``durable_dir`` (:data:`~repro.engine.wal.WAL_SYNC_MODES`):
      ``"always"`` fsyncs every write, ``"group"`` amortises one fsync
      over a commit group, ``"async"`` flushes without fsync; ``None``
      means ``"group"`` when a durable directory is used.

    Validation happens at construction; ``to_dict()``/``from_dict()``
    round-trip the config (including the auto-tune sub-config) for
    persistence, and :meth:`from_preset` names three starting points:
    ``"read_heavy"``, ``"mixed"``, ``"auto"``.
    """

    num_shards: int = 8
    model: str = "interpolation"
    layer: str = "R"
    layer_partitions: int | None = None
    backend: str = "static"
    density: float = 0.75
    merge_threshold: int = 4096
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES
    auto_tune: bool | AutoTuneConfig = False
    workers: int = 1
    durability: str | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        check_engine_shape(self.model, self.layer)
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"backend must be one of {BACKEND_KINDS}, "
                f"got {self.backend!r}"
            )
        if not (0.1 <= self.density <= 1.0):
            raise ValueError("density must be in [0.1, 1.0]")
        if self.merge_threshold < 1:
            raise ValueError("merge_threshold must be >= 1")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        if not isinstance(self.auto_tune, (bool, AutoTuneConfig)):
            raise ValueError(
                "auto_tune must be a bool or an AutoTuneConfig, "
                f"got {type(self.auto_tune).__name__}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.durability is not None and \
                self.durability not in WAL_SYNC_MODES:
            raise ValueError(
                f"durability must be one of {WAL_SYNC_MODES} or None, "
                f"got {self.durability!r}"
            )

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "IndexConfig":
        """A named profile (:data:`PRESETS`), with keyword overrides.

        >>> IndexConfig.from_preset("mixed", num_shards=4).backend
        'gapped'
        """
        try:
            preset = PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; known: {sorted(PRESETS)}"
            ) from None
        return cls(**{**preset, **overrides})

    def to_dict(self) -> dict:
        """JSON-safe dict, inverted by :meth:`from_dict`.

        Carries a ``config_version`` so persisted configs can evolve.
        """
        payload = dataclasses.asdict(self)
        if isinstance(self.auto_tune, AutoTuneConfig):
            payload["auto_tune"] = self.auto_tune.to_dict()
        payload["config_version"] = CONFIG_VERSION
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexConfig":
        """Rebuild (and re-validate) a config written by :meth:`to_dict`."""
        payload = dict(payload)
        version = int(payload.pop("config_version", CONFIG_VERSION))
        if version > CONFIG_VERSION:
            raise ValueError(
                f"IndexConfig version {version} is newer than this "
                f"library understands ({CONFIG_VERSION})"
            )
        auto_tune = payload.get("auto_tune", False)
        if isinstance(auto_tune, dict):
            payload["auto_tune"] = AutoTuneConfig.from_dict(auto_tune)
        return cls(**payload)

    def backend_config(self) -> BackendConfig:
        """The engine-level :class:`BackendConfig` this config implies."""
        return BackendConfig(
            model=self.model,
            layer=self.layer,
            layer_partitions=self.layer_partitions,
            payload_bytes=self.payload_bytes,
            density=self.density,
            merge_threshold=self.merge_threshold,
        )


def _as_config(config, overrides: dict) -> IndexConfig:
    """Normalise build()'s config argument: None | preset name | config."""
    if config is None:
        config = IndexConfig()
    elif isinstance(config, str):
        config = IndexConfig.from_preset(config)
    elif not isinstance(config, IndexConfig):
        raise TypeError(
            "config must be an IndexConfig, a preset name or None, "
            f"got {type(config).__name__}"
        )
    if overrides:
        config = replace(config, **overrides)
    return config


class Index:
    """One handle over the whole stack: build, query, mutate, persist,
    serve.

    Constructed by :meth:`build` (fit models + layers over a sorted key
    array) or :func:`open` (reopen a saved index, no refitting).  Reads
    run through the vectorised
    :class:`~repro.engine.executor.BatchExecutor`; writes route through
    the sharded engine's run-aligned update machinery; :meth:`serve`
    returns the asyncio front end.  The underlying layers stay
    reachable as :attr:`engine` and :attr:`executor` — the facade adds
    no state of its own beyond the config it was built from.
    """

    def __init__(
        self,
        engine: ShardedIndex,
        config: IndexConfig,
        *,
        executor: BatchExecutor | None = None,
        durability=None,
    ) -> None:
        self.engine = engine
        self._config = config
        self.executor = (
            executor if executor is not None
            else BatchExecutor(engine, workers=config.workers)
        )
        #: the :class:`~repro.engine.durability.DurabilityManager`
        #: logging this index's writes (None: memory-only).  Owned by
        #: the facade: :meth:`close` commits and releases it.
        self.durability = durability

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        config: IndexConfig | str | None = None,
        *,
        name: str = "index",
        durable_dir: str | Path | None = None,
        **overrides,
    ) -> "Index":
        """Fit a full engine over sorted ``keys``.

        ``config`` is an :class:`IndexConfig`, a preset name
        (``"read_heavy"`` | ``"mixed"`` | ``"auto"``) or ``None`` (the
        defaults); keyword overrides patch individual fields either
        way:

        >>> index = Index.build(keys, "mixed", num_shards=4)  # doctest: +SKIP

        ``durable_dir`` makes the index crash-safe from birth: a WAL +
        checkpoint directory (:mod:`repro.engine.durability`) is
        initialised there, every subsequent ``insert``/``delete`` is
        logged, and :func:`repro.open <open>` on that directory
        recovers the index after a crash.  The fsync policy comes from
        ``config.durability`` (default ``"group"``).
        """
        config = _as_config(config, overrides)
        engine = ShardedIndex.build(
            np.asarray(keys),
            config.num_shards,
            model=config.model,
            layer=config.layer,
            layer_partitions=config.layer_partitions,
            payload_bytes=config.payload_bytes,
            name=name,
            backend=config.backend,
            density=config.density,
            merge_threshold=config.merge_threshold,
            auto_tune=config.auto_tune,
        )
        manager = None
        if durable_dir is not None:
            from .engine.durability import DurabilityManager

            manager = DurabilityManager.create(
                engine, durable_dir,
                sync=config.durability or "group",
                index_config=config.to_dict(),
            )
        return cls(engine, config, durability=manager)

    @classmethod
    def open(cls, path: str | Path) -> "Index":
        """Reopen a saved index directory — no refitting.

        ``path`` is a directory written by :meth:`save` (a *snapshot*)
        or by ``build(durable_dir=...)`` (a *durable directory*): one
        layout, one open path
        (:func:`~repro.engine.durability.replay_directory`), told apart
        by the manifest's WAL policy.  A durable directory records one,
        replays its WAL tail and comes back with logging live
        (``source == "recovered"``); a snapshot records none, stays
        memory-only (``source == "loaded"``) and is never written to.

        The reopened engine answers bit-identically to the saved one
        (models, layers, pending update buffers, tuner decisions all
        restored).  Raises
        :class:`~repro.engine.persist.IndexPersistError` for corrupted,
        truncated or version-incompatible segments and its subclass
        :class:`~repro.engine.durability.DurabilityError` for the
        directory itself — a ``path`` that is a file (the whole-engine
        ``.npz`` older releases wrote) is refused by name, never misread.
        """
        from .engine.durability import DurabilityManager, replay_directory

        state = replay_directory(path)
        manager = None
        if state.manifest.get("sync") is not None:
            manager = DurabilityManager.recover(state)
        return cls.from_state(state, durability=manager)

    @classmethod
    def from_state(cls, state, *, durability=None) -> "Index":
        """The facade over a
        :class:`~repro.engine.durability.RecoveredState`; on its own,
        the read-only open CLI ``inspect`` uses."""
        saved = state.manifest.get("index_config")
        config = (
            IndexConfig.from_dict(saved) if saved is not None
            else cls._derive_config(state.index)
        )
        return cls(state.index, config, durability=durability)

    @staticmethod
    def _derive_config(engine: ShardedIndex) -> IndexConfig:
        """Facade view of an engine persisted without an ``index_config``
        (saved or checkpointed straight from the engine layer)."""
        bc = engine.config
        return IndexConfig(
            num_shards=engine.num_shards,
            model=bc.model,
            layer=bc.layer,
            layer_partitions=bc.layer_partitions,
            backend=engine.backend_kind,
            density=bc.density,
            merge_threshold=bc.merge_threshold,
            payload_bytes=bc.payload_bytes,
            auto_tune=(engine.tuner.config if engine.tuner is not None
                       else False),
        )

    def save(self, path: str | Path) -> dict:
        """Publish the whole engine as a snapshot directory at ``path``.

        One WAL-less checkpoint generation (``MANIFEST.json`` +
        ``segments/``) through the routine :meth:`checkpoint` runs: the
        facade config, every shard's model + correction layer, backend
        storage with pending deltas, tuner decisions — see
        :func:`~repro.engine.durability.save_snapshot`.  Returns the
        published manifest.
        """
        from .engine.durability import save_snapshot

        return save_snapshot(self.engine, path,
                             index_config=self._config.to_dict())

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def lookup(self, q) -> int:
        """Global lower-bound position of ``q`` in the live key sequence."""
        return self.engine.lookup(q)

    def _coerce(self, values) -> tuple[np.ndarray, np.ndarray | None]:
        """Key-exact query array + above-domain mask for raw client input.

        A bare ``np.asarray`` over a mixed python list (a ``>2**63``
        key next to a negative probe) infers float64 and corrupts keys
        above 2**53; :func:`~repro.core.records.coerce_query_array`
        clamps into the key domain exactly instead.  Masked lanes sit
        above every representable key, so their lower bound is
        ``len(self)``.
        """
        return coerce_query_array(values, self.engine.key_dtype)

    def lookup_many(self, queries: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup` over a query batch (original order)."""
        queries, oob = self._coerce(queries)
        positions = self.executor.lookup_batch(queries)
        if oob is not None:
            positions[oob] = len(self)
        return positions

    def range(self, lo, hi) -> tuple[int, int]:
        """``[first, last)`` global positions of ``lo <= key < hi``."""
        first, last = self.range_many([lo], [hi])
        return int(first[0]), int(last[0])

    def range_many(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`range` over aligned bound arrays."""
        lows, oob_lo = self._coerce(lows)
        highs, oob_hi = self._coerce(highs)
        first, last = self.executor.range_batch(lows, highs)
        n = len(self)
        if oob_lo is not None:
            first[oob_lo] = n
        if oob_hi is not None:
            last[oob_hi] = n
        return first, np.maximum(first, last)

    def count(self, lo, hi) -> int:
        """Cardinality of ``lo <= key < hi``."""
        first, last = self.range(lo, hi)
        return last - first

    def scan(self, lo, hi) -> np.ndarray:
        """Materialised key slice of ``lo <= key < hi`` (clustered scan)."""
        return self.scan_many([lo], [hi])[0]

    def scan_many(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> list[np.ndarray]:
        """Materialised key slices per ``(lo, hi)`` range."""
        lows_c, oob_lo = self._coerce(lows)
        highs_c, oob_hi = self._coerce(highs)
        if oob_lo is None and oob_hi is None:
            return self.executor.scan_batch(lows_c, highs_c)
        # out-of-domain extremes: slice via the (mask-patched) positions
        # so a bound above the key domain still covers the last key
        first, last = self.range_many(lows, highs)
        keys = self.engine.keys
        return [keys[int(a):int(b)] for a, b in zip(first, last)]

    def explain(self, queries: np.ndarray) -> str:
        """The engine's EXPLAIN for a batch: routing + per-shard strategy."""
        queries, _ = self._coerce(queries)
        return self.executor.explain(queries)

    # ------------------------------------------------------------------
    # writes and maintenance
    # ------------------------------------------------------------------
    def insert(self, key) -> int:
        """Insert ``key``; returns the shard that absorbed it."""
        return self.engine.insert(key)

    def delete(self, key) -> int:
        """Delete one occurrence of ``key`` (KeyError if absent)."""
        return self.engine.delete(key)

    def refresh(self) -> None:
        """Fold buffered updates back into every shard."""
        self.engine.refresh()

    def retune(self, tuner=None) -> list[dict]:
        """Run the §3.9 per-shard maintenance pass; returns the actions."""
        return self.engine.retune(tuner)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def durable(self) -> bool:
        """Whether writes to this index are WAL-logged."""
        return self.durability is not None

    def _require_durability(self):
        if self.durability is None:
            raise ValueError(
                "this index has no durability layer; build it with "
                "durable_dir=... or open a durable directory"
            )
        return self.durability

    def commit(self) -> int:
        """Group-commit the WAL: fsync every logged write; returns the
        durable LSN.  Under ``durability="always"`` writes commit
        themselves and this is a cheap no-op barrier."""
        return self._require_durability().commit()

    def checkpoint(self) -> dict:
        """Flush all shards to a new checkpoint generation incrementally
        (one shard at a time — writers in other threads are never
        blocked for longer than one shard's snapshot) and prune the WAL
        behind it.  Returns the published manifest."""
        return self._require_durability().checkpoint()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(self, addr=None, *, max_frame: int | None = None,
              **server_opts):
        """A configured serving front end (in-process or TCP).

        Without ``addr`` this returns the asyncio
        :class:`~repro.serve.server.IndexServer`; keyword options pass
        straight through (``max_batch``, ``max_wait_us``,
        ``point_cache``, ``range_cache``, ``max_inflight``,
        ``retune_interval``, …) and ``workers`` defaults to the build
        config's value.  Use as an async context manager::

            async with index.serve(retune_interval=30.0) as server:
                position = await server.lookup(q)

        With ``addr=(host, port)`` the same server is wrapped in a
        :class:`~repro.net.server.NetServer` speaking the framed binary
        protocol (:mod:`repro.net`); ``port=0`` binds an ephemeral
        port, and closing the net server closes the inner one::

            async with index.serve(addr=("127.0.0.1", 0)) as net:
                async with repro.net.Client(*net.address) as client:
                    position = await client.lookup(q)

        A durable index hands its manager to the server automatically,
        so awaited writes are acknowledged writes and
        ``checkpoint_interval=`` schedules background checkpoints.

        A durable index served over TCP is also a replication leader:
        :func:`repro.replica.follow` pointed at ``net.address``
        full-syncs the published checkpoint and streams the WAL tail
        over the same port.
        """
        from .serve.server import IndexServer

        server_opts.setdefault("workers", self._config.workers)
        if self.durability is not None:
            server_opts.setdefault("durability", self.durability)
        server = IndexServer(self.engine, **server_opts)
        if addr is None:
            return server
        from .net.protocol import DEFAULT_MAX_FRAME
        from .net.server import NetServer

        host, port = addr
        return NetServer(
            server, host, int(port),
            max_frame=DEFAULT_MAX_FRAME if max_frame is None else max_frame,
            own_server=True,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> IndexConfig:
        """The (immutable) configuration this index was built with."""
        return self._config

    @property
    def source(self) -> str:
        """``"built"`` for fresh fits, ``"loaded"`` for reopened indexes."""
        return self.engine.source

    @property
    def keys(self) -> np.ndarray:
        """The live, sorted global key array."""
        return self.engine.keys

    @property
    def key_dtype(self) -> np.dtype:
        """Dtype of the indexed keys (queries are normalised to it)."""
        return self.engine.key_dtype

    def __len__(self) -> int:
        return len(self.engine)

    def build_info(self) -> dict[str, object]:
        """One-line engine summary (shards, sizes, staleness, source)."""
        return self.engine.build_info()

    def close(self) -> None:
        """Commit + release the durability layer and the worker pool."""
        if self.durability is not None:
            self.durability.close()
        self.executor.close()

    def __enter__(self) -> "Index":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Index(N={len(self)}, K={self.engine.num_shards}, "
            f"backend={self.engine.backend_kind!r}, source={self.source!r})"
        )


def open(path: str | Path) -> Index:
    """Reopen a saved index directory (snapshot or durable) from ``path``.

    Module-level alias of :meth:`Index.open`, mirroring the stdlib's
    ``open``-a-resource idiom: load every shard's model, correction
    layer and pending update state without refitting anything.
    """
    return Index.open(path)


__all__ = ["CONFIG_VERSION", "PRESETS", "Index", "IndexConfig", "open"]
