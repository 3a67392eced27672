"""RPR2xx — engine write-lock discipline.

PR 3 introduced the engine-wide write lock: every mutation of
``ShardedIndex`` shard state happens under ``self._write_lock`` and
``WriteEvent`` listeners fire while it is held, which is what makes the
WAL's LSN order equal the apply order (PR 6 relies on that for
recovery).  These rules re-derive the contract from the source itself:

- a class "owns" a lock when it assigns ``self.<x> = threading.Lock()``
  (or ``RLock``) in its body;
- an attribute is *registered* as lock-protected when at least one
  assignment to it sits lexically inside ``with self.<lock>:``;
- a private helper is *locked-only* when every call site in the class
  is under the lock, inside another locked-only helper, or in
  ``__init__`` (pre-publication, single-threaded by construction).

``RPR201`` then flags any assignment to a registered attribute outside
the lock, and ``RPR202`` flags ``WriteEvent`` construction outside a
lock-holding context.

The engine's write-concurrency model is one writer at a time behind one
re-entrant lock (``ShardedIndex._write_lock``), so "holds the lock" is
the whole contract — there is no weaker mode to police.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .framework import ModuleContext, Rule, register

#: Methods that run before the object is published to other threads.
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


def _is_lock_factory(call: ast.AST) -> bool:
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None)
    return name in _LOCK_FACTORIES


def _self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` target name, seen through subscripts/slices."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"):
        return node.attr
    return None


def _mentions_lockish(node: ast.AST) -> bool:
    """Whether a ``with`` context expression names something lock-like."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None and "lock" in name.lower():
            return True
    return False


@dataclass
class _MethodInfo:
    node: ast.AST
    name: str
    # (attr, anchor node, under_own_lock)
    assignments: list = field(default_factory=list)
    # (callee, under_own_lock)
    self_calls: list = field(default_factory=list)
    # (anchor node, under_any_lockish_with)
    write_events: list = field(default_factory=list)


@dataclass
class _ClassInfo:
    node: ast.ClassDef
    lock_attrs: set = field(default_factory=set)
    methods: dict = field(default_factory=dict)

    @property
    def protected(self) -> set:
        return {attr for m in self.methods.values()
                for attr, _, locked in m.assignments if locked}

    def locked_only(self) -> set:
        """Fixpoint: private helpers provably called only under the lock."""
        sites: dict[str, list] = {}
        for m in self.methods.values():
            for callee, locked in m.self_calls:
                sites.setdefault(callee, []).append((m.name, locked))
        result = {name for name in self.methods
                  if name.startswith("_") and not name.startswith("__")
                  and name in sites}
        changed = True
        while changed:
            changed = False
            for name in list(result):
                for caller, locked in sites[name]:
                    if locked or caller in _CONSTRUCTORS or caller in result:
                        continue
                    result.discard(name)
                    changed = True
                    break
        return result


def _collect_class(cls: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(node=cls)
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        m = _MethodInfo(node=stmt, name=stmt.name)
        info.methods[stmt.name] = m
    # first pass: find the lock attributes (assigned anywhere in the class)
    for m in info.methods.values():
        for sub in ast.walk(m.node):
            if isinstance(sub, ast.Assign) and _is_lock_factory(sub.value):
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        info.lock_attrs.add(attr)
    # second pass: classify every assignment / self-call / WriteEvent
    for m in info.methods.values():
        _walk_method(m, info.lock_attrs)
    return info


def _walk_method(m: _MethodInfo, lock_attrs: set) -> None:
    def visit(node, own_lock: bool, any_lock: bool) -> None:
        if isinstance(node, ast.With):
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in lock_attrs:
                    own_lock = True
                if _mentions_lockish(item.context_expr):
                    any_lock = True
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    m.assignments.append((attr, target, own_lock))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                m.self_calls.append((func.attr, own_lock))
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name == "WriteEvent":
                m.write_events.append((node, own_lock or any_lock))
        for child in ast.iter_child_nodes(node):
            visit(child, own_lock, any_lock)

    for stmt in m.node.body:
        visit(stmt, False, False)


_LOCK_SCOPE = ("engine", "serve")


@register
class UnlockedStateMutation(Rule):
    """Assignment to a lock-registered attribute outside the lock."""

    code = "RPR201"
    name = "unlocked-state-mutation"
    summary = ("attributes assigned under `with self._write_lock` are "
               "registered as protected; every other assignment to them "
               "must also hold the lock")
    scope_dirs = _LOCK_SCOPE

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        for cls in [n for n in ast.walk(ctx.tree)
                    if isinstance(n, ast.ClassDef)]:
            info = _collect_class(cls)
            if not info.lock_attrs:
                continue
            protected = info.protected
            locked_only = info.locked_only()
            for m in info.methods.values():
                if m.name in _CONSTRUCTORS or m.name in locked_only:
                    continue
                for attr, node, locked in m.assignments:
                    if locked or attr not in protected:
                        continue
                    findings.append(self.finding(
                        ctx, node,
                        f"assignment to lock-protected state "
                        f"`self.{attr}` outside `with self."
                        f"{sorted(info.lock_attrs)[0]}` in "
                        f"{cls.name}.{m.name}; writers and the WAL "
                        "listener chain race against this"))
        return findings


@register
class WriteEventOutsideLock(Rule):
    """``WriteEvent(...)`` built where no lock is (provably) held."""

    code = "RPR202"
    name = "write-event-outside-lock"
    summary = ("WriteEvent construction outside a lock-holding method "
               "breaks apply-order = LSN-order for WAL listeners")
    scope_dirs = _LOCK_SCOPE

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        classes = {n for n in ast.walk(ctx.tree)
                   if isinstance(n, ast.ClassDef)}
        method_nodes = set()
        for cls in classes:
            info = _collect_class(cls)
            locked_only = info.locked_only()
            for m in info.methods.values():
                method_nodes.add(m.node)
                if m.name in _CONSTRUCTORS or m.name in locked_only:
                    continue
                for node, locked in m.write_events:
                    if not locked:
                        findings.append(self.finding(
                            ctx, node,
                            f"WriteEvent constructed outside a lock-held "
                            f"scope in {cls.name}.{m.name}; listeners "
                            "(WAL, cache coherence) assume events are "
                            "emitted under the engine write lock"))
        # module-level / free-function constructions
        findings.extend(self._free_functions(ctx, method_nodes))
        return findings

    def _free_functions(self, ctx: ModuleContext, method_nodes) -> list:
        findings = []

        def visit(node, any_lock: bool) -> None:
            if node in method_nodes:
                return
            if isinstance(node, ast.With):
                if any(_mentions_lockish(i.context_expr)
                       for i in node.items):
                    any_lock = True
            elif isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name == "WriteEvent" and not any_lock:
                    findings.append(self.finding(
                        ctx, node,
                        "WriteEvent constructed outside any lock-held "
                        "scope; emit events only from code holding the "
                        "engine write lock"))
            for child in ast.iter_child_nodes(node):
                visit(child, any_lock)

        visit(ctx.tree, False)
        return findings
