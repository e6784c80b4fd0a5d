"""Analysis engine: module loading, waivers, rule registry, runner.

The engine is deliberately dependency-free (stdlib ``ast`` only): it
must be able to run over a tree whose runtime imports are broken, and
it must never import the code it is judging.

Since the interprocedural rewrite the engine distinguishes per-module
rules (``Rule.check``) from whole-program rules (``Rule.check_project``).
Every run is a full run over freshly parsed sources; what the rules
share within a run (each module's import aliases, each scope's node
list) is computed once and held on the :class:`ModuleInfo`.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "RULES",
    "Rule",
    "call_tail",
    "dotted_name",
    "load_module",
    "param_names",
    "register",
    "run_analysis",
    "scope_walk",
    "target_names",
]

_WAIVER_RE = re.compile(r"#\s*analysis:\s*allow\(([^)]*)\)")

UNUSED_WAIVER_RULE = "unused-waiver"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "path": self.path.replace(os.sep, "/"),
            "line": self.line, "col": self.col,
            "message": self.message, "hint": self.hint,
        }


@dataclass
class ModuleInfo:
    """A parsed source file plus everything rules need to judge it."""

    path: str
    module: str               # dotted name, e.g. ``repro.hw.bus``
    tree: ast.Module
    lines: list[str]
    waivers: dict[int, set[str]]
    _scopes: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in :func:`ast.walk` order, walked once
        per run."""
        return list(ast.walk(self.tree))

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Map local names to the absolute dotted names they were
        imported as (``np`` -> ``numpy``, ``urandom`` -> ``os.urandom``)."""
        aliases: dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    aliases[alias.asname or root] = (
                        alias.name if alias.asname else root)
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and not node.level):
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}")
        return aliases

    def scope_nodes(self, owner: ast.AST) -> list[ast.AST]:
        """:func:`scope_walk` of ``owner``'s body (the module itself or
        one of its defs), in walk order, built once per run."""
        nodes = self._scopes.get(id(owner))
        if nodes is None:
            nodes = self._scopes[id(owner)] = list(scope_walk(owner.body))
        return nodes

    @property
    def package(self) -> str:
        """Top-level subpackage under ``repro`` (``(root)`` for the
        package ``__init__``, ``""`` when not part of ``repro``)."""
        parts = self.module.split(".")
        if "repro" not in parts:
            return ""
        index = parts.index("repro")
        rest = parts[index + 1:]
        return rest[0] if rest else "(root)"

    def waived(self, finding: Finding) -> int | None:
        """A waiver covers its own line and the line directly below it
        (comment-above style for statements too long to annotate).
        Returns the waiver's line so the runner can track which waivers
        actually fire (stale ones become findings themselves)."""
        for line in (finding.line, finding.line - 1):
            rules = self.waivers.get(line)
            if rules and (finding.rule in rules or "*" in rules):
                return line
        return None


class Rule:
    """Base class: subclass, set ``name``/``description``, register.

    ``check`` runs once per module; rules that need the whole program
    (call graphs) override ``check_project`` instead and leave
    ``check`` returning nothing.
    """

    name = ""
    description = ""

    def check(self, module: ModuleInfo, config: AnalysisConfig):
        return ()

    def check_project(self, modules: list[ModuleInfo],
                      config: AnalysisConfig):
        return ()


RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    RULES[cls.name] = cls()
    return cls


# --- module loading ---------------------------------------------------------


def _module_name(path: str) -> str:
    """Dotted module name by walking up through ``__init__.py`` parents."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    parent = os.path.dirname(path)
    while os.path.exists(os.path.join(parent, "__init__.py")):
        parts.append(os.path.basename(parent))
        parent = os.path.dirname(parent)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def _parse_waivers(source: str) -> dict[int, set[str]]:
    """Waivers live in *comments* only: tokenize rather than regex raw
    lines, so waiver-shaped text inside docstrings never registers."""
    waivers: dict[int, set[str]] = {}
    if not _WAIVER_RE.search(source):
        return waivers
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unparsable file: fall back to raw lines so a waiver next to
        # the syntax error still behaves predictably.
        comments = list(enumerate(source.splitlines(), start=1))
    for number, text in comments:
        match = _WAIVER_RE.search(text)
        if match:
            names = {part.strip() for part in match.group(1).split(",")}
            waivers[number] = {name for name in names if name}
    return waivers


def load_module(path: str, source: str | None = None) -> ModuleInfo:
    if source is None:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return ModuleInfo(path=path, module=_module_name(path), tree=tree,
                      lines=lines, waivers=_parse_waivers(source))


def iter_python_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d != "__pycache__")
                files.extend(os.path.join(dirpath, name)
                             for name in sorted(filenames)
                             if name.endswith(".py"))
        elif path.endswith(".py"):
            files.append(path)
    return files


# --- shared AST helpers -----------------------------------------------------


def dotted_name(node: ast.AST, aliases: dict[str, str] | None = None
                ) -> str | None:
    """``a.b.c`` for Name/Attribute chains, with the root resolved
    through the import alias map; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if aliases and root in aliases:
        root = aliases[root]
    parts.append(root)
    return ".".join(reversed(parts))


def scope_walk(body):
    """Every node in a scope, not descending into nested functions."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def call_tail(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def target_names(target: ast.expr):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_names(element)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)


def param_names(func: ast.FunctionDef) -> list[str]:
    args = func.args
    params = [a.arg for a in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs)]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            params.append(extra.arg)
    return params


# --- runner -----------------------------------------------------------------


@dataclass
class AnalysisResult:
    findings: list[Finding] = field(default_factory=list)
    waived: list[Finding] = field(default_factory=list)
    files: int = 0
    rules: list[str] = field(default_factory=list)
    waiver_lines: int = 0     # waiver comments present in the tree


def run_analysis(paths: list[str], rules: list[str] | None = None,
                 config: AnalysisConfig = DEFAULT_CONFIG) -> AnalysisResult:
    """Parse every ``.py`` under ``paths`` and run the selected rules."""
    import repro.analysis.rules  # noqa: F401  (registers the rule set)

    selected = [RULES[name] for name in sorted(rules or RULES)]
    selected_names = {rule.name for rule in selected}
    result = AnalysisResult(rules=[rule.name for rule in selected])

    raw: list[Finding] = []
    modules: list[ModuleInfo] = []
    for path in iter_python_files(paths):
        result.files += 1
        try:
            modules.append(load_module(path))
        except SyntaxError as error:
            raw.append(Finding(
                path=path, line=error.lineno or 0, col=error.offset or 0,
                rule="syntax", message=f"cannot parse: {error.msg}"))
    for rule in selected:
        for module in modules:
            raw.extend(rule.check(module, config))
        raw.extend(rule.check_project(modules, config))

    by_path = {module.path: module for module in modules}
    used_waivers: set[tuple[str, int]] = set()
    seen = set()
    for finding in raw:
        key = (finding.rule, finding.path, finding.line, finding.message)
        if key in seen:
            continue
        seen.add(key)
        module = by_path.get(finding.path)
        waiver_line = module.waived(finding) if module is not None else None
        if waiver_line is not None:
            used_waivers.add((finding.path, waiver_line))
            result.waived.append(finding)
        else:
            result.findings.append(finding)

    result.waiver_lines = sum(len(m.waivers) for m in modules)
    result.findings.extend(_stale_waivers(modules, used_waivers,
                                          selected_names))
    result.findings.sort()
    result.waived.sort()
    return result


def _stale_waivers(modules: list[ModuleInfo],
                   used_waivers: set[tuple[str, int]],
                   selected_names: set[str]) -> list[Finding]:
    """A waiver that suppressed nothing is itself a finding — but only
    when every rule it names actually ran, so partial ``--rule`` runs
    never cry stale."""
    out: list[Finding] = []
    for module in modules:
        for line, names in sorted(module.waivers.items()):
            if (module.path, line) in used_waivers:
                continue
            required = set(RULES) if "*" in names else names - {"*"}
            if not required <= selected_names:
                continue
            listed = ", ".join(sorted(names))
            out.append(Finding(
                path=module.path, line=line, col=0,
                rule=UNUSED_WAIVER_RULE,
                message=f"stale waiver: allow({listed}) suppresses no "
                        f"finding",
                hint="delete the comment, or re-document why the "
                     "exception is still needed"))
    return out
