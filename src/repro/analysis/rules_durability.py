"""RPR3xx — durability (fsync/rename) discipline under ``engine/`` and
``core/`` (where the container's writer lives).

PR 6's crash-recovery contract: a file is durable only after (1) its
contents are fsynced, (2) it is atomically published with
``os.replace``, and (3) the *parent directory* is fsynced so the rename
itself survives power loss.  ``atomic_write`` (``core/serialize.py``)
implements the full sequence; these rules flag code that re-invents it
partially:

- ``RPR301``: ``os.replace``/``os.rename`` in a function that does not
  also fsync the file *and* the parent directory
- ``RPR302``: write-mode ``open``/``os.fdopen``/``Path.write_*`` in the
  engine outside the ``atomic_*`` helpers and fsync-aware classes
"""

from __future__ import annotations

import ast

from .framework import ModuleContext, Rule, register

_WRITE_MODE_CHARS = set("wax+")


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_os_call(ctx: ModuleContext, call: ast.Call, attrs) -> bool:
    func = call.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ctx.aliases_of("os")
            and func.attr in attrs):
        return True
    if isinstance(func, ast.Name):
        origin = ctx.from_imports.get(func.id)
        return origin is not None and origin[0] == "os" and origin[1] in attrs
    return False


def _has_file_fsync(ctx: ModuleContext, scope: ast.AST) -> bool:
    return any(isinstance(n, ast.Call)
               and _is_os_call(ctx, n, ("fsync", "fdatasync"))
               for n in ast.walk(scope))


def _has_dir_fsync(scope: ast.AST) -> bool:
    for n in ast.walk(scope):
        if isinstance(n, ast.Call):
            name = _callee_name(n)
            if name is not None and "fsync_dir" in name:
                return True
    return False


def _calls_atomic_helper(scope: ast.AST) -> bool:
    for n in ast.walk(scope):
        if isinstance(n, ast.Call):
            name = _callee_name(n)
            if name is not None and name.lstrip("_").startswith("atomic"):
                return True
    return False


def _write_mode(call: ast.Call) -> str | None:
    """The mode string when this call opens a file for writing."""
    name = _callee_name(call)
    mode = None
    if name in ("open", "fdopen"):
        args = call.args
        idx = 1
        if args and len(args) > idx and isinstance(args[idx], ast.Constant) \
                and isinstance(args[idx].value, str):
            mode = args[idx].value
        for kw in call.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                mode = kw.value.value
        if mode is not None and _WRITE_MODE_CHARS & set(mode):
            return mode
        return None
    if name in ("write_text", "write_bytes") \
            and isinstance(call.func, ast.Attribute):
        return name
    return None


def _function_scopes(tree: ast.Module):
    """Yield ``(func_node, enclosing_class_or_None)`` for every function."""
    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, cls
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)
    yield from visit(tree, None)


@register
class ReplaceWithoutFsync(Rule):
    """``os.replace`` without file-fsync + parent-dir-fsync nearby."""

    code = "RPR301"
    name = "replace-without-fsync"
    summary = ("os.replace publishes a file, but without fsync of the "
               "file and its parent directory the rename can vanish on "
               "power loss")
    scope_dirs = ("engine", "core")

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        for fn, _cls in _function_scopes(ctx.tree):
            replaces = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                        and _is_os_call(ctx, n, ("replace", "rename"))]
            if not replaces:
                continue
            missing = []
            if not _has_file_fsync(ctx, fn):
                missing.append("os.fsync of the file")
            if not _has_dir_fsync(fn):
                missing.append("fsync of the parent directory "
                               "(_fsync_dir)")
            if not missing:
                continue
            for node in replaces:
                findings.append(self.finding(
                    ctx, node,
                    f"os.replace in `{fn.name}` without {' or '.join(missing)}; "
                    "use atomic_write/atomic_write_text or replicate "
                    "their full fsync→replace→dir-fsync sequence"))
        return findings


@register
class UnsyncedDurableWrite(Rule):
    """Write-mode file creation in engine/ outside the atomic helpers."""

    code = "RPR302"
    name = "unsynced-durable-write"
    summary = ("write-mode open() in the engine bypasses the "
               "atomic_write helpers; data written this way is "
               "not crash-durable")
    scope_dirs = ("engine", "core")

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        class_fsync: dict[ast.AST, bool] = {}
        for fn, cls in _function_scopes(ctx.tree):
            if fn.name.lstrip("_").startswith("atomic"):
                continue
            if _has_file_fsync(ctx, fn) or _calls_atomic_helper(fn):
                continue
            if cls is not None:
                if cls not in class_fsync:
                    class_fsync[cls] = _has_file_fsync(ctx, cls)
                if class_fsync[cls]:
                    # e.g. WAL lanes: opened in __init__, fsynced in flush
                    continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                mode = _write_mode(node)
                if mode is None:
                    continue
                findings.append(self.finding(
                    ctx, node,
                    f"write-mode file access ({mode!r}) in `{fn.name}` "
                    "with no fsync on any path; route durable writes "
                    "through atomic_write/atomic_write_text or fsync "
                    "explicitly"))
        return findings
