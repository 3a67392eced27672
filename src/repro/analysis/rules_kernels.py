"""RPR5xx — lane-loop hygiene for the batch pipeline.

The batch pipeline runs as numpy array passes end to end
(``model.predict_pos_batch`` → ``layer.window_batch``/``correct_batch``
→ the lane-parallel validated search in :mod:`repro.search.batch`).  A
per-element Python loop over query or key arrays anywhere in the hot
path is either a performance bug (it silently reverts a lane-parallel
pass to interpreter speed) or a reference path that must say so.

- ``RPR501``: a ``for`` loop or comprehension iterating over query/key
  arrays.  Lane work belongs in array passes — the search itself in
  :func:`repro.search.batch.validated_search`; the sanctioned
  exceptions — scalar reference paths, tracing, adapters over arbitrary
  Python callables — carry a reasoned ``# repro: noqa[RPR501]``.
"""

from __future__ import annotations

import ast

from .framework import ModuleContext, Rule, register
from .rules_dtype import is_queryish, names_in

#: Iteration targets that mark a per-lane loop over indexed data.  Key
#: arrays are included (``for k in keys`` is as kernel-eligible as
#: ``for q in queries``); generic ``data``/``rows`` are not — build-time
#: passes over records are not lane loops.
_LANE_ARRAYS = frozenset({"keys"})


#: ``for i in range(num_queries)`` iterates indices, not lane values.
_COUNT_PREFIXES = ("num_", "n_", "count", "len_", "total_")


def _source_names(node: ast.AST):
    """Identifiers naming the *source* of an iterated expression.

    ``enumerate(...)``/``zip(...)``/``np.asarray(...)`` wrappers are
    transparent, but subscript *indices* are not — ``xs[:n_queries]``
    iterates over ``xs``, not over queries — and ``range(...)`` yields
    plain integers whatever its bounds are named.
    """
    if isinstance(node, ast.Subscript):
        yield from _source_names(node.value)
    elif isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "range":
            return
        for arg in node.args:
            yield from _source_names(arg)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        yield from names_in(node)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _source_names(child)


def _is_lane_source(node: ast.AST) -> bool:
    """Whether an iterated expression draws from query/key arrays."""
    return any(
        (is_queryish(n) or n in _LANE_ARRAYS)
        and not n.startswith(_COUNT_PREFIXES)
        for n in _source_names(node)
    )


@register
class UnregisteredLaneLoop(Rule):
    """Per-element Python loop over query/key arrays in the hot path."""

    code = "RPR501"
    name = "unregistered-lane-loop"
    summary = ("per-element Python loop over query/key arrays; move it "
               "into the numpy lane search in repro/search/batch.py or mark "
               "the reference path with a reasoned noqa")
    scope_dirs = ("core", "models", "search", "engine")

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                src = node.iter
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
            ):
                src = node.generators[0].iter
            else:
                continue
            if not _is_lane_source(src):
                continue
            findings.append(self.finding(
                ctx, node,
                "per-element Python loop over query/key arrays; lane "
                "loops belong in array passes like the numpy lane search "
                "in repro/search/batch.py — or justify the reference "
                "path with a reasoned noqa"))
        return findings
