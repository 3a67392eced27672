"""RPR6xx — artifact-read discipline, everywhere in the package.

Saved artifacts are shipped between machines and reopened by other
processes, so every byte the library trusts must come through a
verifying loader: ``.npz`` archives through ``read_archive``
(``core/serialize.py``, SHA-256 over the manifest + every array) and
manifest/state JSON through the sanctioned readers that validate format
magic and fail loudly (``load_manifest``, ``read_replica_state``).  A
raw ``np.load``/``json.loads`` of those files skips the verification a
torn ship or bit-rot depends on being caught by:

- ``RPR601``: ``np.load`` outside ``read_archive`` — archive bytes
  trusted without checksum verification
- ``RPR602``: ``json.load(s)`` outside a sanctioned reader — manifest
  or replica-state JSON trusted without format validation
"""

from __future__ import annotations

import ast

from .framework import ModuleContext, Rule, register

#: functions allowed to deserialise manifest/state JSON directly
_SANCTIONED_JSON_READERS = (
    "load_manifest",
    "read_archive",
    "read_replica_state",
)

#: functions allowed to call ``np.load`` directly
_SANCTIONED_ARCHIVE_READERS = ("read_archive",)


def _enclosing_functions(tree: ast.Module):
    """Yield ``(func_node, name_chain)`` for every function in ``tree``."""
    def visit(node, chain):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            chain = chain + (node.name,)
            yield node, chain
        for child in ast.iter_child_nodes(node):
            yield from visit(child, chain)
    yield from visit(tree, ())


def _calls_in_function(fn: ast.AST):
    """Calls belonging to ``fn`` itself (not to a nested function)."""
    def visit(node, top):
        if not top and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            yield node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, False)
    yield from visit(fn, True)


def _is_module_call(ctx: ModuleContext, call: ast.Call, module: str,
                    attrs: tuple[str, ...]) -> bool:
    func = call.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ctx.aliases_of(module)
            and func.attr in attrs):
        return True
    if isinstance(func, ast.Name):
        origin = ctx.from_imports.get(func.id)
        return origin is not None and origin[0] == module \
            and origin[1] in attrs
    return False


class _ArtifactReadRule(Rule):
    """Shared shape: flag calls outside a sanctioned-reader allowlist."""

    sanctioned: tuple[str, ...] = ()

    def _match(self, ctx: ModuleContext, call: ast.Call) -> bool:
        raise NotImplementedError

    def _message(self, fn_name: str) -> str:
        raise NotImplementedError

    def check(self, ctx: ModuleContext) -> list:
        findings = []
        for fn, chain in _enclosing_functions(ctx.tree):
            if any(name in self.sanctioned for name in chain):
                continue
            for call in _calls_in_function(fn):
                if self._match(ctx, call):
                    findings.append(self.finding(
                        ctx, call, self._message(fn.name)))
        return findings


@register
class UnverifiedArchiveRead(_ArtifactReadRule):
    """``np.load`` outside the checksum-verifying loader."""

    code = "RPR601"
    name = "unverified-archive-read"
    summary = ("np.load outside read_archive trusts archive bytes "
               "without checksum verification — saved, shipped or synced "
               "artifacts must go through the verified loader")
    sanctioned = _SANCTIONED_ARCHIVE_READERS

    def _match(self, ctx: ModuleContext, call: ast.Call) -> bool:
        return _is_module_call(ctx, call, "numpy", ("load",))

    def _message(self, fn_name: str) -> str:
        return (f"np.load in `{fn_name}` bypasses checksum verification; "
                "read archives through load_shard_segment / load_layer / "
                "load_model (the read_archive path)")


@register
class UnverifiedManifestRead(_ArtifactReadRule):
    """``json.load(s)`` outside a sanctioned manifest/state reader."""

    code = "RPR602"
    name = "unverified-manifest-read"
    summary = ("json.load(s) outside the sanctioned readers trusts "
               "manifest/replica-state JSON without format validation "
               "(load_manifest / read_replica_state / read_archive)")
    sanctioned = _SANCTIONED_JSON_READERS

    def _match(self, ctx: ModuleContext, call: ast.Call) -> bool:
        return _is_module_call(ctx, call, "json", ("load", "loads"))

    def _message(self, fn_name: str) -> str:
        return (f"json deserialisation in `{fn_name}` bypasses format "
                "validation; read manifests through load_manifest and "
                "replica state through read_replica_state")
