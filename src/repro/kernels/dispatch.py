"""Fused pipeline dispatch: a CorrectedIndex becomes a kernel plan.

``predict → correct → bounded-search`` over one shard chunk is three
separate numpy passes in the fallback path, each materialising an
intermediate array.  When the compiled backend is live, this module
extracts the shard's model/layer parameters into a :class:`KernelPlan`
once (cached on the index) and runs the whole chunk as two compiled
passes: one per-lane predict kernel writing the float predictions, and
one fused correct+search kernel resolving positions.

Unsupported configurations — a model without a :meth:`kernel_spec`
(PGM, histogram, ad-hoc ``FunctionModel``\\ s), a degenerate one-point
radix spline, or a bare boundless model whose numpy path is already a
single ``searchsorted`` — return ``None`` so the caller keeps the
battle-tested numpy composition.  Layers are recognised structurally
(``deltas`` ⇒ R-mode :class:`ShiftTable`, ``drifts`` ⇒ S-mode
:class:`CompactShiftTable`) so this module never imports ``repro.core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelPlan:
    """Extracted per-shard parameters for one fused pipeline run."""

    family: str
    spec: dict
    search_kind: str  # "window" | "point" | "leaf_bounds" | "const_bounds"
    search_args: tuple


def build_plan(model, layer, n: int) -> KernelPlan | None:
    """Plan for one model/layer pair, or ``None`` when unsupported."""
    spec = model.kernel_spec()
    if spec is None:
        return None
    family = spec["family"]
    if layer is not None and hasattr(layer, "deltas"):  # R-mode ShiftTable
        m = layer.num_partitions
        search = ("window",
                  (layer.deltas, layer.widths, m == n, m / n, m))
    elif layer is not None and hasattr(layer, "drifts"):  # S-mode compact
        radius = max(int(np.ceil(layer.mean_abs_error)), 1)
        m = layer.num_partitions
        search = ("point", (layer.drifts, m == n, m / n, m, radius))
    elif layer is not None:
        return None
    elif family == "rmi":
        search = ("leaf_bounds", (spec["err_lo"], spec["err_hi"]))
    elif "error_bounds" in spec:
        e_lo, e_hi = spec["error_bounds"]
        search = ("const_bounds", (int(e_lo), int(e_hi)))
    else:
        # boundless bare model: the fallback is one searchsorted — there
        # is no window to exploit and nothing to fuse
        return None
    return KernelPlan(family, spec, search[0], search[1])


def plan_for(index) -> KernelPlan | None:
    """Cached :func:`build_plan` for a CorrectedIndex instance."""
    cached = index.__dict__.get("_kernel_plan")
    if (
        cached is not None
        and cached[0] is index.model
        and cached[1] is index.layer
    ):
        return cached[2]
    plan = build_plan(index.model, index.layer, len(index.data.keys))
    index.__dict__["_kernel_plan"] = (index.model, index.layer, plan)
    return plan


def run_plan(plan: KernelPlan, keys, queries, impls) -> np.ndarray:
    """Execute a plan with the given kernel namespace.

    ``impls`` is any object exposing the kernel functions by name — the
    compiled :mod:`~repro.kernels.numba_backend` or the interpreted
    :mod:`~repro.kernels.cpu` (parity tests).
    """
    nq = queries.shape[0]
    pred = np.empty(nq, dtype=np.float64)
    leaf = None
    s = plan.spec
    family = plan.family
    if family == "interpolation":
        impls.predict_interpolation(queries, s["kmin"], s["scale"], pred)
    elif family == "affine":
        impls.predict_affine(queries, s["slope"], s["intercept"], pred)
    elif family == "radix_spline":
        impls.predict_radix_spline(queries, s["sp_keys"], s["sp_pos"], pred)
    elif family == "rmi":
        leaf = np.empty(nq, dtype=np.int64)
        root = s["root"]
        if root == "linear":
            a, b = s["params"]
            impls.predict_rmi_linear(
                queries, a, b, s["slopes"], s["intercepts"],
                s["num_leaves"], leaf, pred
            )
        elif root == "cubic":
            c3, c2, c1, c0 = s["params"]
            impls.predict_rmi_cubic(
                queries, c3, c2, c1, c0, s["kmin"], s["span"], s["slopes"],
                s["intercepts"], s["num_leaves"], leaf, pred
            )
        else:  # radix: signedness follows the (normalised) query dtype
            base, shift = s["params"]
            if queries.dtype.kind == "u":
                impls.predict_rmi_radix_unsigned(
                    queries, base, shift, s["slopes"], s["intercepts"],
                    s["num_leaves"], leaf, pred
                )
            else:
                impls.predict_rmi_radix_signed(
                    queries, base, shift, s["slopes"], s["intercepts"],
                    s["num_leaves"], leaf, pred
                )
    else:  # pragma: no cover - build_plan only emits the families above
        raise ValueError(f"unknown kernel family {family!r}")

    out = np.empty(nq, dtype=np.int64)
    kind = plan.search_kind
    if kind == "window":
        deltas, widths, same, ratio, m = plan.search_args
        impls.fused_window_search(
            keys, queries, pred, deltas, widths, same, ratio, m, out
        )
    elif kind == "point":
        drifts, same, ratio, m, radius = plan.search_args
        impls.fused_point_search(
            keys, queries, pred, drifts, same, ratio, m, radius, out
        )
    elif kind == "leaf_bounds":
        err_lo, err_hi = plan.search_args
        impls.fused_leaf_bounds_search(
            keys, queries, pred, leaf, err_lo, err_hi, out
        )
    else:
        e_lo, e_hi = plan.search_args
        impls.fused_const_bounds_search(keys, queries, pred, e_lo, e_hi, out)
    return out


def fused_lookup_batch(index, keys, n, queries) -> np.ndarray | None:
    """Compiled whole-pipeline run, or ``None`` to keep the numpy path.

    Called from ``CorrectedIndex._lookup_batch_pipeline`` after query
    normalisation; a ``None`` return means "this configuration (or the
    current kernel mode) wants the numpy composition".
    """
    from . import REGISTRY, numba_backend

    if REGISTRY.effective_mode() != "numba":
        return None
    if queries.ndim != 1:
        return None
    plan = plan_for(index)
    if plan is None:
        return None
    return run_plan(plan, keys, queries, numba_backend)
