"""RPR4xx — async safety in the serving layers (``serve/``, ``net/``,
``replica/``).

The asyncio serving core, its TCP front end and the replication
handlers it hosts multiplex every client over one event loop; a
single blocking call in a coroutine stalls *all* in-flight requests for
its duration (a 5 ms fsync is ~250 batch windows).  ``IndexServer``
therefore pushes every blocking durability call through
``loop.run_in_executor``; ``RPR401`` flags the ones that slipped
through:

- ``time.sleep`` (use ``asyncio.sleep``)
- ``os.fsync``/``os.fdatasync`` (wrap in an executor)
- synchronous ``open``/``fdopen`` file I/O
- non-awaited ``.acquire()`` (``threading`` lock) — ``await
  lock.acquire()`` on an asyncio lock is fine

Calls inside nested *sync* ``def``s are exempt: that is exactly the
shape of an executor-shipped closure.
"""

from __future__ import annotations

import ast

from .framework import ModuleContext, Rule, register


def _blocking_reason(ctx: ModuleContext, call: ast.Call,
                     awaited: bool) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        mod, attr = func.value.id, func.attr
        if mod in ctx.aliases_of("time") and attr == "sleep":
            return "time.sleep blocks the event loop; use asyncio.sleep"
        if mod in ctx.aliases_of("os") and attr in (
                "fsync", "fdatasync", "replace", "rename"):
            return (f"os.{attr} blocks the event loop; run it via "
                    "loop.run_in_executor")
    if isinstance(func, ast.Attribute) and func.attr == "acquire" \
            and not awaited:
        return ("synchronous .acquire() blocks the event loop; await an "
                "asyncio lock or move the critical section to an executor")
    if isinstance(func, ast.Name):
        origin = ctx.from_imports.get(func.id, (None, None))
        if (func.id == "open" and func.id not in ctx.from_imports) \
                or origin == ("io", "open"):
            return ("synchronous file I/O blocks the event loop; do it in "
                    "an executor")
        if origin == ("time", "sleep"):
            return "time.sleep blocks the event loop; use asyncio.sleep"
        if origin == ("os", "fsync") or origin == ("os", "fdatasync"):
            return ("os.fsync blocks the event loop; run it via "
                    "loop.run_in_executor")
    return None


@register
class BlockingCallInAsync(Rule):
    """Blocking call directly inside an ``async def`` body."""

    code = "RPR401"
    name = "blocking-call-in-async"
    summary = ("blocking calls (time.sleep, os.fsync, lock acquire, sync "
               "file I/O) in async def stall every in-flight request")
    scope_dirs = ("serve", "net", "replica")

    def check(self, ctx: ModuleContext) -> list:
        findings = []

        def visit(node, in_async: bool, awaited: bool) -> None:
            if isinstance(node, ast.AsyncFunctionDef):
                in_async = True
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                # nested sync def: executor-shipped closure territory
                in_async = False
            if in_async and isinstance(node, ast.Call):
                reason = _blocking_reason(ctx, node, awaited)
                if reason is not None:
                    findings.append(self.finding(ctx, node, reason))
            child_awaited = isinstance(node, ast.Await)
            for child in ast.iter_child_nodes(node):
                visit(child, in_async, child_awaited)

        visit(ctx.tree, False, False)
        return findings
