"""``zeroization``: scrub obligations proven over the function CFG.

A function that registers a *fresh* secret-bearing region (an acquire
call such as ``lock_region_to_core`` whose subject is a local, not an
already-owned ``self.<attr>``) takes on an obligation: on every
path through its control-flow graph it must either

* reach a release (``scrub``/``teardown``/``panic``/
  ``unlock_region``), directly or through a function that transitively
  always leads to one — the call graph is built over the analyzed tree,
  which is how ``panic() -> teardown() -> scrub()`` discharges — or
* transfer ownership by returning a value (the caller now owns the
  handle and its teardown) before any leaking exit.

The proof runs over the CFG built by :mod:`repro.analysis.cfg`: a
may-hold bit is propagated through every edge, including loop
back-edges, the statement-granular exception edges into ``except``
handlers, and per-continuation copies of ``finally`` bodies.  That
last point is the teeth the old straight-line checker lacked — a
*conditional* release inside a finalizer used to count as full
coverage; now only the branch that actually releases does.

Explicit exits are ``return``, ``raise``, and falling off the end of
the function.  Implicit exits outside ``try`` blocks (any expression
can raise) remain out of scope for a lint — the dynamic chaos harness
and the runtime :class:`~repro.sanitizers.secret.SecretSanitizer`
cover those — but the pattern this rule enforces (release in
``finally`` / ``except`` before re-raise) is exactly the one that also
survives implicit exceptions.
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import build_cfg
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    call_tail,
    register,
)


def _is_owned_subject(call: ast.Call) -> bool:
    """Acquire on ``self.<attr>`` re-binds already-owned state (e.g.
    ``resume`` re-locking ``self.region``) — no fresh obligation."""
    if not call.args:
        return False
    subject = call.args[0]
    return (isinstance(subject, ast.Attribute)
            and isinstance(subject.value, ast.Name)
            and subject.value.id == "self")


def _calls_in(fragment: ast.AST):
    for sub in ast.walk(fragment):
        if isinstance(sub, ast.Call):
            yield sub


class _CfgChecker:
    """May-hold dataflow over one function's CFG."""

    def __init__(self, module: ModuleInfo, func: ast.FunctionDef,
                 acquires: frozenset, releases: frozenset) -> None:
        self.module = module
        self.func = func
        self.acquires = acquires
        self.releases = releases

    def run(self) -> list[Finding]:
        cfg = build_cfg(self.func)
        in_states: dict[int, set[bool]] = {id(cfg.entry): {False}}
        node_of = {id(cfg.entry): cfg.entry}
        worklist = [(cfg.entry, False)]
        while worklist:
            node, state = worklist.pop()
            out = self._transfer(node, state)
            for succ in node.succ:
                states = in_states.setdefault(id(succ), set())
                node_of[id(succ)] = succ
                if out not in states:
                    states.add(out)
                    worklist.append((succ, out))

        findings: list[Finding] = []
        emitted: set[tuple[int, str]] = set()
        for kind, stmt, node in cfg.exits:
            if True not in in_states.get(id(node), set()):
                continue
            if kind == "return-value":
                continue  # ownership transferred to the caller
            if kind == "fall":
                message = (f"{self.func.name}() can fall through holding "
                           f"an unscrubbed secret region")
            elif kind == "return-none":
                message = (f"{self.func.name}() returns without scrubbing "
                           f"the region it registered")
            else:  # raise
                message = (f"{self.func.name}() can propagate an exception "
                           f"while holding an unscrubbed region")
            key = (stmt.lineno, message)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(Finding(
                path=self.module.path, line=stmt.lineno,
                col=stmt.col_offset, rule=ZeroizationRule.name,
                message=message,
                hint="scrub/teardown in a finally block, panic() before "
                     "re-raising, or return the owning handle to the "
                     "caller"))
        return findings

    def _transfer(self, node, holding: bool) -> bool:
        for fragment in node.exprs:
            for call in _calls_in(fragment):
                tail = call_tail(call.func)
                if tail in self.releases:
                    holding = False
                if tail in self.acquires and not _is_owned_subject(call):
                    holding = True
        return holding


@register
class ZeroizationRule(Rule):
    name = "zeroization"
    description = "secret-region registrations must scrub on every " \
                  "CFG path (exception edges included)"

    def check_project(self, modules: list[ModuleInfo],
                      config: AnalysisConfig):
        functions: list[tuple[ModuleInfo, ast.FunctionDef]] = []
        for module in modules:
            for node in module.nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append((module, node))

        # Transitive closure: a function releases if its body (not
        # nested defs) calls a releasing name.
        releasing = set(config.zeroize_release)
        changed = True
        while changed:
            changed = False
            for module, func in functions:
                if func.name in releasing:
                    continue
                tails = {call_tail(node.func)
                         for node in module.scope_nodes(func)
                         if isinstance(node, ast.Call)}
                if tails & releasing:
                    releasing.add(func.name)
                    changed = True

        acquires = frozenset(config.zeroize_acquire)
        findings: list[Finding] = []
        for module, func in functions:
            has_fresh_acquire = any(
                call_tail(node.func) in acquires
                and not _is_owned_subject(node)
                for node in module.scope_nodes(func)
                if isinstance(node, ast.Call))
            if not has_fresh_acquire:
                continue
            checker = _CfgChecker(module, func, acquires,
                                  frozenset(releasing))
            findings.extend(checker.run())
        return findings
