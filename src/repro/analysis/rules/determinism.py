"""``determinism``: no wall clocks, no OS entropy, no unseeded RNG.

The fault-injection and chaos transcripts (CHANGES.md PR 2) are only
replayable because every source of time and randomness is explicit: the
virtual clock, seeded HMAC-DRBGs, and ``numpy.random.default_rng(seed)``
with the seed spelled out at the call site.  This rule rejects the
stdlib escape hatches and any RNG constructor left to seed itself from
the OS.

Aliasing does not hide a call: import aliases (``from time import time
as now``, ``import numpy.random as npr``) resolve through the
engine's alias table, and *assignment* aliases (``now = time.time``
followed by ``now()``) are picked up by a pre-pass that maps local
names to the forbidden callables they were bound to.
"""

from __future__ import annotations

import ast

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    dotted_name,
    register,
)


@register
class DeterminismRule(Rule):
    name = "determinism"
    description = ("forbid wall clocks, OS entropy, and implicitly seeded "
                   "RNG constructors")

    def check(self, module: ModuleInfo, config: AnalysisConfig):
        aliases = {**module.aliases,
                   **self._assignment_aliases(module, module.aliases,
                                              config)}
        findings: list[Finding] = []
        for node in module.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                findings.extend(self._check_import(module, node, config))
            elif isinstance(node, ast.Call):
                findings.extend(
                    self._check_call(module, node, aliases, config))
        return findings

    def _assignment_aliases(self, module: ModuleInfo, aliases, config):
        """``now = time.time`` binds a local name to a forbidden
        callable; calls through the alias must be flagged too."""
        bound: dict[str, str] = {}
        for node in module.nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = dotted_name(node.value, aliases)
            if name is None:
                continue
            parts = name.split(".")
            if (name in config.forbidden_calls
                    or name in config.seeded_constructors
                    or (len(parts) == 3 and parts[0] == "numpy"
                        and parts[1] == "random"
                        and parts[2] in config.numpy_global_rng)):
                bound[target.id] = name
        return bound

    def _check_import(self, module: ModuleInfo, node, config):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        else:
            if node.level:
                return
            roots = [(node.module or "").split(".")[0]]
        for root in roots:
            hint = config.forbidden_modules.get(root)
            if hint:
                yield Finding(
                    path=module.path, line=node.lineno, col=node.col_offset,
                    rule=self.name,
                    message=f"import of nondeterministic module {root!r}",
                    hint=hint)

    def _check_call(self, module: ModuleInfo, node: ast.Call, aliases,
                    config):
        name = dotted_name(node.func, aliases)
        if name is None:
            return
        hint = config.forbidden_calls.get(name)
        if hint:
            yield Finding(
                path=module.path, line=node.lineno, col=node.col_offset,
                rule=self.name,
                message=f"call to nondeterministic {name}()", hint=hint)
            return
        if name in config.seeded_constructors:
            if not node.args and not node.keywords:
                yield Finding(
                    path=module.path, line=node.lineno, col=node.col_offset,
                    rule=self.name,
                    message=f"{name}() without an explicit seed",
                    hint="pass the seed at the call site so transcripts "
                         "replay byte-for-byte")
            return
        # numpy's hidden module-level generator (np.random.rand & co).
        parts = name.split(".")
        if (len(parts) == 3 and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in config.numpy_global_rng):
            yield Finding(
                path=module.path, line=node.lineno, col=node.col_offset,
                rule=self.name,
                message=f"call to numpy global-state RNG {name}()",
                hint="use numpy.random.default_rng(seed) and thread the "
                     "generator through")
