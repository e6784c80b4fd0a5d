"""Whole-program function index and call resolution.

Built once per analysis run over every parsed module, this is the
spine of the interprocedural rules: each ``def`` (including methods)
becomes a :class:`FunctionInfo` addressable by its dotted qualname,
and :meth:`ProjectIndex.resolve` maps a call expression back to the
possible callees.

Resolution is deliberately best-effort — this is a lint over a Python
tree, not a type checker:

* names imported via ``from m import f``/``import m`` resolve through
  the module's import-alias table to an exact qualname;
* bare names resolve to the same module first, then globally by bare
  name when the match is unique enough (bounded fan-out);
* ``self.method(...)`` resolves within the enclosing class first;
* anything else returns no candidates, and the caller falls back to
  the conservative any-argument treatment the intramodule rule always
  used — unknown code never *launders* taint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import ModuleInfo, dotted_name
from repro.analysis.engine import param_names as _param_names

__all__ = ["FunctionInfo", "ProjectIndex", "module_functions"]

# A bare-name lookup matching more homonyms than this is treated as
# unresolved: merging many unrelated summaries only manufactures noise.
_MAX_BARE_CANDIDATES = 4


@dataclass(eq=False)
class FunctionInfo:
    """One ``def`` plus the context needed to analyze it.  Compared and
    hashed by identity: two defs may share a qualname."""

    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str                  # repro.crypto.keycache.SecretCache.put
    class_name: str | None
    params: tuple[str, ...] = field(default_factory=tuple)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def nodes(self) -> list[ast.AST]:
        """The body's scope nodes, shared by every rule in the run."""
        return self.module.scope_nodes(self.node)


def module_functions(module: ModuleInfo):
    """Yield a :class:`FunctionInfo` for every def, tracking one level
    of class nesting (methods); defs nested in functions keep the outer
    function in their qualname path but no class binding.  Every
    statement body is searched: ``if``/``try``/``with``, ``except``
    handlers, ``for``/``while`` bodies, ``else``/``finally`` blocks and
    ``match`` cases."""
    stack: list[tuple[ast.AST, str | None, list[str]]] = [
        (module.tree, None, [])]
    while stack:
        node, class_name, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, child.name, prefix + [child.name]))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield FunctionInfo(
                    module=module, node=child,
                    qualname=".".join([module.module, *prefix, child.name]),
                    class_name=class_name,
                    params=tuple(_param_names(child)))
                stack.append((child, None, prefix + [child.name]))
            elif isinstance(child, (ast.stmt, ast.excepthandler,
                                    ast.match_case)):
                # Only statements hold defs, and only statements,
                # handlers and match cases hold statements.
                stack.append((child, class_name, prefix))


class ProjectIndex:
    """Qualname and bare-name maps over every function in the run."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.functions: list[FunctionInfo] = []
        self.by_qualname: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for module in modules:
            for info in module_functions(module):
                self.functions.append(info)
                self.by_qualname[info.qualname] = info
                self.by_name.setdefault(info.name, []).append(info)

    def resolve(self, func: ast.expr, module: ModuleInfo,
                class_name: str | None = None) -> list[FunctionInfo]:
        """Candidate callees for a call's ``func`` expression."""
        aliases = module.aliases
        if isinstance(func, ast.Name):
            absolute = aliases.get(func.id)
            if absolute is not None:
                hit = self.by_qualname.get(absolute)
                return [hit] if hit else []
            local = self.by_qualname.get(f"{module.module}.{func.id}")
            if local is not None:
                return [local]
            return self._bare(func.id)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (isinstance(receiver, ast.Name) and receiver.id == "self"
                    and class_name is not None):
                own = self.by_qualname.get(
                    f"{module.module}.{class_name}.{func.attr}")
                if own is not None:
                    return [own]
            dotted = dotted_name(func, aliases)
            if dotted is not None:
                hit = self.by_qualname.get(dotted)
                if hit is not None:
                    return [hit]
            return self._bare(func.attr)
        return []

    def _bare(self, name: str) -> list[FunctionInfo]:
        candidates = self.by_name.get(name, [])
        if 0 < len(candidates) <= _MAX_BARE_CANDIDATES:
            return list(candidates)
        return []
