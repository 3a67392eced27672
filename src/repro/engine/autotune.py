"""Workload-adaptive per-shard auto-tuning: the §3.9 cost model, applied
per shard inside the engine.

The paper's tuning procedure (``core/tuner.tune``) prices a model with
and without its Shift-Table layer for one dataset.  The engine always
keeps the layer and asks, once per shard — each shard sees its own
slice of the key distribution — two choices the paper's single-index
setting doesn't have:

* **which model family?** — a shard covering a smooth uniform segment
  wants the 8-byte interpolation model; a shard covering a heavy-tailed
  or clustered segment may justify an RMI (the engine's two families;
  every shard keeps its R-mode layer);
* **which storage backend?** — the observed read/write mix decides
  whether rebuild-on-write (``static``), an ALEX-style gapped array
  (``gapped``) or §6 delta buffers (``fenwick``) minimise mixed-workload
  latency.

:class:`ShardTuner` folds both into one scored decision per shard,
driven by the shard's local key distribution (fed through
:func:`repro.core.tuner.tune` / the eq. 8–10 cost model) and the
workload counters the engine already collects
(:class:`~repro.engine.backends.ShardStats`: executor read counters +
routed write counts).  :meth:`ShardedIndex.retune
<repro.engine.sharded.ShardedIndex.retune>` applies the decisions as a
maintenance pass; ``ShardedIndex.build(..., auto_tune=True)`` applies
them at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.cost_model import DEFAULT_LAYER_LOOKUP_NS, LatencyCurve
from ..core.records import SortedData
from ..core.tuner import tune
from ..models.factory import IndexDecision, make_model
from .backends import BACKEND_KINDS, BackendConfig, ShardStats

#: Per-family model-access cost in ns, the ``Latency(F_θ)`` term of
#: eq. (9); its keys are the model families the tuner scores, each with
#: an R-mode layer ("S" is a memory-budget fallback the cost model has
#: no latency equation for — see §3.4).  Calibrated to the vectorised
#: batch pipeline's relative per-lane costs (an interpolation model is
#: two loads and a multiply; an RMI adds a second-level leaf lookup).
MODEL_ACCESS_NS = {
    "interpolation": 6.0,
    "rmi": 14.0,
}

#: Mixed-workload cost constants per backend: amortised cost of one
#: routed write, and the multiplicative read penalty the backend's
#: update machinery adds (gapped arrays search over gapped slots,
#: fenwick lookups add two buffer ``searchsorted`` passes).
WRITE_NS = {"gapped": 2_000.0, "fenwick": 1_200.0}
READ_PENALTY = {"static": 1.0, "gapped": 1.30, "fenwick": 1.25}

#: A static backend re-sorts and refits the whole shard on every write.
STATIC_REFIT_NS_PER_KEY = 60.0

#: Amortised per-query cost of the correction-layer lookup in the
#: *vectorised batch* pipeline.  §4.1's ~40 ns
#: (:data:`~repro.core.cost_model.DEFAULT_LAYER_LOOKUP_NS`) prices one
#: scalar random access; batched layer gathers coalesce across lanes,
#: so the engine's tuner defaults to a much smaller figure.
BATCH_LAYER_LOOKUP_NS = 12.0


def local_search_ns(err: float, curve: LatencyCurve | None = None) -> float:
    """Cost of a bounded local search over ``err`` records, in ns.

    Uses the measured §2.3 latency curve when one is available and the
    repo's standard ``36·log2(err + 1)`` binary-search estimate (the
    same fallback the grid tuners use) otherwise.
    """
    err = max(float(err), 1.0)
    if curve is not None:
        return float(curve(err))
    return 36.0 * float(np.log2(err + 1.0))


@dataclass(frozen=True)
class AutoTuneConfig:
    """Knobs of the per-shard auto-tuner.

    The tuner scores every family of :data:`MODEL_ACCESS_NS` with an
    R-mode layer; ``backends`` bounds the storage engines it considers
    (set it to a single kind to pin the storage engine); ``curve``
    feeds the measured §2.3 latency curve into eqs. (9)/(10) instead of
    the log2 estimate; ``min_shard_keys`` skips shards too small for
    model choice to matter; ``min_observations`` is how many observed
    operations a shard needs before its write fraction is trusted over
    ``default_write_fraction``; ``switch_margin`` is the predicted
    improvement required before :meth:`ShardedIndex.retune` rebuilds a
    shard (hysteresis against config flapping); ``merge_fraction`` is
    the fraction of the build-time target size below which a retune
    pass merges a shard into its neighbour.
    """

    backends: tuple[str, ...] = BACKEND_KINDS
    curve: LatencyCurve | None = None
    layer_ns: float = BATCH_LAYER_LOOKUP_NS
    min_shard_keys: int = 64
    min_observations: int = 256
    default_write_fraction: float = 0.0
    switch_margin: float = 0.10
    merge_fraction: float = 0.5

    def __post_init__(self) -> None:
        for backend in self.backends:
            if backend not in BACKEND_KINDS:
                raise ValueError(
                    f"backends must be among {BACKEND_KINDS}, got {backend!r}"
                )
        if not self.backends:
            raise ValueError("backends must be non-empty")

    def to_dict(self) -> dict:
        """JSON-safe dict for persistence (``engine/persist``).

        The measured latency ``curve`` is process-local (it prices
        *this* machine) and is deliberately not persisted; a loaded
        config scores with the log2 estimate until a fresh curve is
        attached.  Inverted by :meth:`from_dict`.
        """
        return {
            "backends": list(self.backends),
            "layer_ns": self.layer_ns,
            "min_shard_keys": self.min_shard_keys,
            "min_observations": self.min_observations,
            "default_write_fraction": self.default_write_fraction,
            "switch_margin": self.switch_margin,
            "merge_fraction": self.merge_fraction,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AutoTuneConfig":
        """Rebuild a config written by :meth:`to_dict` (validated).

        Older manifests also carry ``models``/``layers`` search-space
        keys; the search space is fixed now, so they are ignored.
        """
        return cls(
            backends=tuple(payload["backends"]),
            layer_ns=float(payload["layer_ns"]),
            min_shard_keys=int(payload["min_shard_keys"]),
            min_observations=int(payload["min_observations"]),
            default_write_fraction=float(payload["default_write_fraction"]),
            switch_margin=float(payload["switch_margin"]),
            merge_fraction=float(payload["merge_fraction"]),
        )


@dataclass(frozen=True)
class ShardDecision:
    """One shard's tuned configuration plus the evidence behind it.

    ``index`` carries the model/layer choice (feedable straight into
    :func:`repro.models.factory.build_corrected_index`), ``backend``
    the storage engine; ``predicted_read_ns`` is the eq. (9)/(10) score
    of the chosen model+layer, ``predicted_ns`` the workload-mixed
    score that also prices writes; ``considered`` records every scored
    alternative (the per-shard analogue of
    :class:`~repro.core.tuner.TuningReport`).
    """

    index: IndexDecision
    backend: str
    predicted_read_ns: float
    predicted_ns: float
    write_fraction: float = 0.0
    considered: list[dict] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Compact form for plan columns, e.g. ``"rmi+R/gapped"``."""
        return f"{self.index.label()}/{self.backend}"


class ShardTuner:
    """Scores model family × backend configurations for one shard.

    Stateless between calls: every :meth:`decide` works from the key
    slice and workload counters it is handed, so the same tuner object
    can serve every shard of an index (and is shared via
    ``ShardedIndex.build(..., auto_tune=...)``).
    """

    def __init__(self, config: AutoTuneConfig | None = None) -> None:
        self.config = config if config is not None else AutoTuneConfig()

    # ------------------------------------------------------------------
    # scoring pieces
    # ------------------------------------------------------------------
    def write_fraction(self, stats: ShardStats | None) -> float:
        """The write mix to plan for: observed when trustworthy.

        Falls back to ``default_write_fraction`` until the shard has
        seen ``min_observations`` operations (a handful of early writes
        must not stampede every shard onto a write-optimised backend).
        """
        config = self.config
        if stats is None or stats.total < config.min_observations:
            return config.default_write_fraction
        return stats.write_fraction()

    def write_ns(self, backend: str, num_keys: int) -> float:
        """Amortised cost of one routed write on ``backend``, in ns."""
        if backend == "static":
            return STATIC_REFIT_NS_PER_KEY * max(num_keys, 1)
        return WRITE_NS[backend]

    def _score_model(self, data: SortedData, kind: str) -> dict:
        """Score one model family with its R-mode layer (eq. 9)."""
        config = self.config
        model_ns = MODEL_ACCESS_NS[kind]
        model = make_model(kind, data.keys)
        _, report = tune(data, model, curve=config.curve, model_ns=model_ns)
        if config.curve is not None:
            # eq. (9) is additive in the layer constant: swap tune()'s
            # scalar 40 ns default for the configured (batch-calibrated)
            # layer cost
            read_ns = (report.predicted_ns_with - DEFAULT_LAYER_LOOKUP_NS
                       + config.layer_ns)
        else:
            read_ns = (model_ns + config.layer_ns
                       + local_search_ns(report.error_after))
        return {"model": kind, "layer": "R", "error": report.error_after,
                "read_ns": float(read_ns)}

    def score_read(self, keys: np.ndarray) -> list[dict]:
        """Score every model family (each with an R-mode layer) for a
        key slice.

        Each candidate dict carries ``model``, ``layer``, ``error`` and
        ``read_ns`` (the eq. (9) prediction).  The §3.9 machinery does
        the heavy lifting: per model, :func:`repro.core.tuner.tune`
        builds the Shift-Table layer and reports the post-correction
        error; the measured latency curve is used when configured.
        """
        data = SortedData(np.asarray(keys), name="tuner")
        return [self._score_model(data, kind) for kind in MODEL_ACCESS_NS]

    def score_mixed(self, read_ns: float, backend: str, num_keys: int,
                    write_fraction: float) -> float:
        """Workload-mixed latency: reads pay the backend's penalty,
        writes its amortised update cost."""
        return ((1.0 - write_fraction) * read_ns * READ_PENALTY[backend]
                + write_fraction * self.write_ns(backend, num_keys))

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------
    def decide(
        self,
        keys: np.ndarray,
        stats: ShardStats | None = None,
        current: ShardDecision | None = None,
        backends: tuple[str, ...] | None = None,
    ) -> ShardDecision:
        """Pick model family + backend for one shard's key slice.

        ``stats`` supplies the observed read/write mix; ``current`` is
        the shard's standing decision — when its predicted latency is
        within ``switch_margin`` of the best candidate's, the current
        configuration is kept (hysteresis), re-labelled with fresh
        predictions.  A current config outside the configured backend
        set is still *scored* as the incumbent, so hysteresis protects
        hand-picked configs too; only an "S"-layer incumbent (which the
        cost model cannot price) switches without a margin check.
        ``backends`` narrows the backend candidates (the build path
        pins the user-requested backend; retune searches the full
        configured set).  Raises ``ValueError`` on an empty slice.
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            raise ValueError("cannot tune an empty shard")
        config = self.config
        wf = self.write_fraction(stats)
        backend_set = backends if backends is not None else config.backends
        read_candidates = self.score_read(keys)

        considered: list[dict] = []
        best: ShardDecision | None = None
        for cand in read_candidates:
            for backend in backend_set:
                mixed = self.score_mixed(cand["read_ns"], backend,
                                         keys.size, wf)
                row = dict(cand, backend=backend, mixed_ns=mixed)
                considered.append(row)
                if best is None or mixed < best.predicted_ns:
                    best = ShardDecision(
                        index=IndexDecision(model=cand["model"],
                                            layer=cand["layer"]),
                        backend=backend,
                        predicted_read_ns=cand["read_ns"],
                        predicted_ns=mixed,
                        write_fraction=wf,
                        considered=considered,
                    )
        assert best is not None, "no candidate configuration was scored"

        if current is not None:
            self._score_incumbent(keys, current, wf, considered)
            kept = self._keep_current(current, considered, wf, best)
            if kept is not None:
                return kept
        return best

    def _score_incumbent(self, keys: np.ndarray, current: ShardDecision,
                         write_fraction: float,
                         considered: list[dict]) -> None:
        """Ensure the standing config has a scored row in ``considered``.

        The hysteresis check compares against the incumbent's own
        score; a hand-picked config outside the search space (e.g. a
        ``gapped`` backend when only ``static`` is configured) must
        still be priced rather than silently losing to the first
        candidate.  An "S"-layer incumbent is left unscored — the margin
        check then skips it.
        """
        model = current.index.model
        layer = current.index.layer
        if any(row["model"] == model and row["layer"] == layer
               and row["backend"] == current.backend
               for row in considered):
            return
        if layer != "R":
            return
        data = SortedData(np.asarray(keys), name="tuner")
        row = self._score_model(data, model)
        considered.append(dict(
            row, backend=current.backend,
            mixed_ns=self.score_mixed(row["read_ns"], current.backend,
                                      keys.size, write_fraction),
        ))

    def _keep_current(
        self,
        current: ShardDecision,
        considered: list[dict],
        write_fraction: float,
        best: ShardDecision,
    ) -> ShardDecision | None:
        """Hysteresis: keep ``current`` unless ``best`` wins by margin.

        Returns a refreshed decision for the current configuration, or
        ``None`` when the switch is justified (or the current config is
        outside the scored candidate set: an "S" layer).
        """
        for row in considered:
            same = (row["model"] == current.index.model
                    and row["layer"] == current.index.layer
                    and row["backend"] == current.backend)
            if not same:
                continue
            if best.predicted_ns >= row["mixed_ns"] * (
                    1.0 - self.config.switch_margin):
                return replace(
                    current,
                    predicted_read_ns=row["read_ns"],
                    predicted_ns=row["mixed_ns"],
                    write_fraction=write_fraction,
                    considered=considered,
                )
            return None
        return None

    # ------------------------------------------------------------------
    # applying a decision
    # ------------------------------------------------------------------
    @staticmethod
    def backend_config(decision: ShardDecision,
                       base: BackendConfig) -> BackendConfig:
        """A :class:`BackendConfig` realising ``decision``.

        Non-tuned knobs (payload bytes, gapped density, fenwick merge
        threshold) carry over from ``base``.
        """
        return replace(
            base,
            model=decision.index.model,
            layer=decision.index.layer,
            layer_partitions=decision.index.layer_partitions,
        )


def decision_from_config(config: BackendConfig,
                         backend: str) -> ShardDecision:
    """The standing :class:`ShardDecision` a shard's config implies.

    Used by :meth:`ShardedIndex.retune` to give the tuner a ``current``
    anchor for hysteresis.
    """
    return ShardDecision(
        index=IndexDecision(model=config.model, layer=config.layer,
                            layer_partitions=config.layer_partitions),
        backend=backend,
        predicted_read_ns=float("nan"),
        predicted_ns=float("inf"),
    )
