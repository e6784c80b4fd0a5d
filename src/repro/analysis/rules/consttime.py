"""``consttime``: no secret-dependent control flow or memory indexing
in ``crypto/``.

The paper's cache-timing attacks (the ``repro.attacks`` L1/L2 probes)
recover AES keys precisely because table lookups index memory with
key-derived bytes.  This rule holds the ``crypto`` package to the
discipline native constant-time code follows: within any function,

* ``if``/``while``/ternary conditions may not depend on secrets
  (secret-dependent *branches* shift timing),
* ``for`` iterables may not depend on secrets (secret-dependent *loop
  bounds* shift timing),
* subscript indices may not depend on secrets (secret-dependent
  *table lookups* shift cache state — the classic AES T-table leak).

Secrets are the taint sources of the ``secret-taint`` rule plus the
expanded key-schedule attributes (``_ek``/``_dk`` and their numpy
mirrors); declassifiers (``len``, digests, ``redact``) cut flows as
usual, and — unlike leak tracking — comparison results stay tainted,
because branching on a one-bit equality with a secret *is* the timing
side channel, and a comprehension carries its element's labels (a list
of secret tables stays secret).

The pinned scalar reference implementations
(``config.CONSTTIME_ALLOWLIST``) are exempt by qualified name: the
T-table AES is the attack's *subject*, kept deliberately leaky, and
each allowlist entry is documented in ARCHITECTURE.md.  Other modeled
leaks (the vectorized gather path) carry inline waivers instead, so
they are counted in every report.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import module_functions
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import Finding, ModuleInfo, Rule, register
from repro.analysis.rules.taint import SECRET, _LabelScope


@register
class ConstTimeRule(Rule):
    name = "consttime"
    description = "no secret-dependent branches, loop bounds, or " \
                  "table indices in crypto code"

    def check(self, module: ModuleInfo, config: AnalysisConfig):
        if module.package not in config.consttime_packages:
            return
        for info in module_functions(module):
            if info.qualname in config.consttime_allowlist:
                continue
            seed = {}
            for param in info.params:
                labels = {param}
                if param in config.secret_params:
                    labels.add(SECRET)
                seed[param] = frozenset(labels)
            scope = _LabelScope(
                module, info.nodes, seed, config,
                class_name=info.class_name,
                extra_secret_attributes=config.consttime_secret_attributes,
                compare_flows=True, comprehension_flows=True)
            scope.solve()
            yield from self._judge(module, scope)

    def _judge(self, module: ModuleInfo, scope: _LabelScope):
        for node in scope.nodes:
            if isinstance(node, (ast.If, ast.While)):
                if SECRET in scope.labels_of(node.test):
                    yield self._finding(
                        module, node, "secret-dependent branch",
                        "branch timing reveals secret bits; compute both "
                        "sides and select with arithmetic masking")
            elif isinstance(node, ast.IfExp):
                if SECRET in scope.labels_of(node.test):
                    yield self._finding(
                        module, node, "secret-dependent branch",
                        "branch timing reveals secret bits; compute both "
                        "sides and select with arithmetic masking")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if SECRET in scope.labels_of(node.iter):
                    yield self._finding(
                        module, node, "secret-dependent loop bound",
                        "iteration count leaks through timing; bound "
                        "loops by public geometry (len is declassified)")
            elif isinstance(node, ast.Subscript):
                if SECRET in scope.labels_of(node.slice):
                    yield self._finding(
                        module, node, "secret-dependent table index",
                        "the cache line touched depends on secret bytes "
                        "(the exact leak the L1/L2 probes exploit); use "
                        "bitsliced or masked selection")

    def _finding(self, module: ModuleInfo, node: ast.AST, message: str,
                 hint: str) -> Finding:
        return Finding(path=module.path, line=node.lineno,
                       col=node.col_offset, rule=self.name,
                       message=message, hint=hint)
