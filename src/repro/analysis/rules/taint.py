"""``secret-taint``: interprocedural dataflow from secrets to leaks.

Sources (:mod:`repro.analysis.config`): parameters named like key
material, calls that return plaintext (``decrypt_model``,
``gcm_decrypt``, ``derive_model_key``, ``record_audio``, ...), and
attribute reads of long-lived secrets (``.sealing_key``,
``._master_secret``).  Taint propagates through assignments,
arithmetic, f-strings, containers — and, since the call-graph rewrite,
*through function calls*: every function in the analyzed tree gets a
summary (which parameters flow to its return value, which parameters
reach a leak sink inside it), the summaries are iterated to a fixpoint
over the whole program, and call sites substitute argument labels into
them.  A secret passed two helpers deep into a ``print`` is reported
at the call site that first handed the secret over.  Calls that do not
resolve to analyzed code keep the old conservative treatment (any
tainted argument taints the result) so unknown code never launders a
secret, and declared declassifiers (``redact``, ``len``, ``encrypt_*``,
digests) still cut flows exactly as before.

Sinks are the ways secret bits have historically escaped enclaves in
source code: ``print``/logging, interpolation into exception messages,
``str``/``repr``/``.hex()``, writes to untrusted flash
(``store_untrusted``, ``flash.store``, ``write_wave``), file handles
from ``open``, ``bus.write`` calls routed to ``World.NORMAL`` memory,
and telemetry sinks — span attributes/events and metric observations on
``repro.obs`` objects, whose contents are exported to normal-world
artifacts (``redact``/``len`` are the sanctioned declassifiers).

Dataflow is label-based: a value's label set may contain the concrete
``<secret>`` label and/or parameter names of the enclosing function.
Parameter labels are what make summaries compositional — they record
*which* inputs a function forwards, so the caller can substitute its
own knowledge of the arguments.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.analysis.config import AnalysisConfig
from repro.analysis.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Rule,
    call_tail,
    dotted_name,
    register,
    target_names,
)

SECRET = "<secret>"
_EMPTY: frozenset = frozenset()
_STRINGIFIERS = frozenset({"ascii", "format", "repr", "str"})
# The node types :meth:`_LabelScope._apply` can bind a name at.
_BINDINGS = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr,
             ast.For, ast.withitem)

# Safety net for the summary worklist: at most this many summaries
# per function, on average, before it stops.
_MAX_GLOBAL_ITERATIONS = 12


@dataclass(frozen=True)
class TaintSummary:
    """What a function does with secrets, in terms of its parameters.

    ``returns`` holds the labels that can reach the return value
    (``<secret>`` and/or own parameter names), ``elements`` the same
    per position when every ``return`` is one length of tuple display;
    ``param_sinks`` maps a parameter to a description of the leak sink
    it reaches inside the function (possibly through further calls)."""

    returns: frozenset = _EMPTY
    elements: tuple = ()     # per-position label sets, or () if unknown
    param_sinks: tuple = ()  # sorted ((param, sink description), ...)

    def sinks(self) -> dict[str, str]:
        return dict(self.param_sinks)


_EMPTY_SUMMARY = TaintSummary()


@dataclass
class _SinkHit:
    node: ast.AST
    labels: frozenset
    message: str
    hint: str
    description: str  # short phrase propagated through summaries


class _LabelScope:
    """Label-set dataflow and sink judgements for one scope.

    ``nodes`` is the scope's node list (:meth:`ModuleInfo.scope_nodes`).
    ``index``/``summaries`` enable interprocedural resolution; with
    ``index=None`` the scope degrades to the intramodule behavior
    (used by the constant-time rule).  ``compare_flows`` additionally
    propagates labels through comparisons — off for leak tracking
    (a one-bit equality result is not an exfiltrated key) but on for
    constant-time analysis (a one-bit branch *is* the timing leak).
    ``comprehension_flows`` labels a list/set/generator comprehension
    with its element expression, so ``[key._planes for key in keys]``
    carries the secret tables it collects — on for constant-time
    analysis, off for leak tracking, whose findings keep their
    established precision.
    """

    def __init__(self, module: ModuleInfo, nodes: list[ast.AST],
                 seed: dict[str, frozenset], config: AnalysisConfig,
                 index: ProjectIndex | None = None,
                 summaries: dict[str, TaintSummary] | None = None,
                 class_name: str | None = None,
                 extra_secret_attributes: frozenset = _EMPTY,
                 compare_flows: bool = False,
                 comprehension_flows: bool = False) -> None:
        self.module = module
        self.nodes = nodes
        self.aliases = module.aliases
        self.config = config
        self.index = index
        self.summaries = summaries if summaries is not None else {}
        self.class_name = class_name
        self.extra_secret_attributes = extra_secret_attributes
        self.compare_flows = compare_flows
        self.comprehension_flows = comprehension_flows
        self.env: dict[str, frozenset] = dict(seed)
        self.file_handles: set[str] = set()

    # --- label propagation --------------------------------------------------

    def solve(self) -> None:
        bindings = [node for node in self.nodes
                    if isinstance(node, _BINDINGS)]
        changed = True
        while changed:
            changed = False
            for node in bindings:
                changed |= self._apply(node)

    def _apply(self, node: ast.AST) -> bool:
        targets_value: list[tuple[ast.expr, ast.expr]] = []
        if isinstance(node, ast.Assign):
            targets_value = [(t, node.value) for t in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                targets_value = [(node.target, node.value)]
        elif isinstance(node, ast.NamedExpr):
            targets_value = [(node.target, node.value)]
        elif isinstance(node, ast.For):
            targets_value = [(node.target, node.iter)]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets_value = [(node.optional_vars, node.context_expr)]
        changed = False
        for target, value in targets_value:
            names = set(target_names(target))
            if not names:
                continue
            elements = (self._unpacked_call(target, value)
                        if isinstance(node, ast.Assign) else None)
            for part, labels in (
                    [(target, self.labels_of(value))] if elements is None
                    else zip(target.elts, elements)):
                for name in target_names(part):
                    merged = self.env.get(name, _EMPTY) | labels
                    if merged != self.env.get(name, _EMPTY):
                        self.env[name] = merged
                        changed = True
            if (isinstance(value, ast.Call)
                    and call_tail(value.func) == "open"
                    and not names <= self.file_handles):
                self.file_handles |= names
                changed = True
        return changed

    def labels_of(self, node: ast.expr | None) -> frozenset:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            if node.attr in self.config.public_attributes:
                return _EMPTY
            if (node.attr in self.config.secret_attributes
                    or node.attr in self.extra_secret_attributes):
                return frozenset({SECRET})
            return self.labels_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_labels(node)
        if isinstance(node, ast.Subscript):
            return self.labels_of(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    out |= self.labels_of(part.value)
            return frozenset(out)
        if isinstance(node, ast.BinOp):
            return self.labels_of(node.left) | self.labels_of(node.right)
        if isinstance(node, ast.BoolOp):
            out = set()
            for value in node.values:
                out |= self.labels_of(value)
            return frozenset(out)
        if isinstance(node, ast.UnaryOp):
            return self.labels_of(node.operand)
        if isinstance(node, ast.Compare) and self.compare_flows:
            out = set(self.labels_of(node.left))
            for comparator in node.comparators:
                out |= self.labels_of(comparator)
            return frozenset(out)
        if isinstance(node, ast.IfExp):
            return self.labels_of(node.body) | self.labels_of(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for element in node.elts:
                out |= self.labels_of(element)
            return frozenset(out)
        if isinstance(node, ast.Dict):
            out = set()
            for part in (*node.keys, *node.values):
                if part is not None:
                    out |= self.labels_of(part)
            return frozenset(out)
        if (isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
                and self.comprehension_flows):
            return self.labels_of(node.elt)
        if isinstance(node, ast.Starred):
            return self.labels_of(node.value)
        if isinstance(node, ast.Await):
            return self.labels_of(node.value)
        return _EMPTY

    def _call_labels(self, node: ast.Call) -> frozenset:
        tail = call_tail(node.func)
        if tail in self.config.declassifiers:
            return _EMPTY
        if tail in self.config.secret_calls:
            return frozenset({SECRET})
        callees = self._resolve(node)
        if not callees:
            return self._conservative_call(node)
        out: set = set()
        for info in callees:
            binding = self._bind(node, info)
            if binding is None:
                out |= self._conservative_call(node)
                continue
            summary = self.summaries.get(info.qualname, _EMPTY_SUMMARY)
            out |= _through(summary.returns, binding)
        return frozenset(out)

    def _unpacked_call(self, target: ast.expr, value) -> list | None:
        """Per-target labels of ``a, b = f(...)`` when every callee
        resolved for ``f`` has ``elements`` of that length, else None."""
        if (not isinstance(target, (ast.Tuple, ast.List))
                or not isinstance(value, ast.Call)
                or call_tail(value.func) in self.config.declassifiers
                or call_tail(value.func) in self.config.secret_calls):
            return None
        callees = self._resolve(value)
        out = [set() for _ in target.elts]
        for info in callees:
            binding = self._bind(value, info)
            summary = self.summaries.get(info.qualname, _EMPTY_SUMMARY)
            if binding is None or len(summary.elements) != len(out):
                return None
            for labels, element in zip(out, summary.elements):
                labels |= _through(element, binding)
        return out if callees else None

    def _conservative_call(self, node: ast.Call) -> frozenset:
        out: set = set()
        for arg in node.args:
            out |= self.labels_of(arg)
        for kw in node.keywords:
            out |= self.labels_of(kw.value)
        if isinstance(node.func, ast.Attribute):
            out |= self.labels_of(node.func.value)
        return frozenset(out)

    def _resolve(self, node: ast.Call) -> list[FunctionInfo]:
        if self.index is None:
            return []
        return self.index.resolve(node.func, self.module, self.class_name)

    def _bind(self, node: ast.Call, info: FunctionInfo
              ) -> dict[str, frozenset] | None:
        """Map callee parameter names to argument label sets; ``None``
        when the call shape defeats binding (starred args, positional
        overflow) and the conservative treatment should apply."""
        params = list(info.params)
        binding: dict[str, frozenset] = {}
        if params and params[0] in ("self", "cls"):
            if isinstance(node.func, ast.Attribute):
                binding[params[0]] = self.labels_of(node.func.value)
                params = params[1:]
        index = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                return None
            if index >= len(params):
                return None
            binding[params[index]] = self.labels_of(arg)
            index += 1
        for kw in node.keywords:
            if kw.arg is None:
                return None
            if kw.arg in info.params:
                binding[kw.arg] = self.labels_of(kw.value)
        return binding

    # --- sinks --------------------------------------------------------------

    def sink_hits(self):
        """Yield every sink reached by a labeled value, regardless of
        whether the label set contains ``<secret>`` — the caller
        decides (findings pass keys on ``<secret>``; the summary pass
        keys on parameter labels)."""
        consumed: set[int] = set()
        for node in self.nodes:
            if isinstance(node, ast.Raise):
                yield from self._check_raise(node, consumed)
            elif isinstance(node, ast.Call):
                yield from self._check_call(node)
            elif isinstance(node, ast.JoinedStr) and id(node) not in consumed:
                labels = self.labels_of(node)
                if labels:
                    yield _SinkHit(
                        node, labels,
                        "secret interpolated into an f-string",
                        "interpolate len()/type() or a digest, never the "
                        "secret bytes", "an f-string")

    def _check_raise(self, node: ast.Raise, consumed: set[int]):
        exc = node.exc
        if not isinstance(exc, ast.Call):
            return
        for arg in (*exc.args, *(kw.value for kw in exc.keywords)):
            labels = self.labels_of(arg)
            if labels:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.JoinedStr):
                        consumed.add(id(sub))
                yield _SinkHit(
                    node, labels, "secret flows into an exception message",
                    "report sizes or identifiers, never key/plaintext "
                    "material (it ends up in normal-world logs)",
                    "an exception message")
                break

    def _check_call(self, node: ast.Call):
        tail = call_tail(node.func)
        args = list(node.args) + [kw.value for kw in node.keywords]
        arg_labels: frozenset = frozenset().union(
            *[self.labels_of(arg) for arg in args]) if args else _EMPTY
        receiver = (node.func.value
                    if isinstance(node.func, ast.Attribute) else None)

        if tail == "print" and receiver is None and arg_labels:
            yield _SinkHit(node, arg_labels, "secret passed to print()",
                           "print derived metadata, not the secret",
                           "print()")
        elif tail in _STRINGIFIERS and receiver is None and arg_labels:
            yield _SinkHit(
                node, arg_labels, f"secret passed to {tail}()",
                "stringified secrets leak via messages and transcripts",
                f"{tail}()")
        elif tail == "hex" and receiver is not None and not args:
            labels = self.labels_of(receiver)
            if labels:
                yield _SinkHit(node, labels,
                               "secret stringified via .hex()",
                               "hex-encoding is not declassification",
                               ".hex()")
        elif tail in self.config.telemetry_sink_methods \
                and receiver is not None and arg_labels:
            # Receiver may itself be a call (registry.histogram(...).
            # observe(...)); judge the innermost dotted path.
            target = receiver.func if isinstance(receiver, ast.Call) \
                else receiver
            dotted = (dotted_name(target, self.aliases) or "").lower()
            parts = {part.lstrip("_") for part in dotted.split(".")}
            if parts & self.config.telemetry_sink_receivers:
                yield _SinkHit(
                    node, arg_labels,
                    "secret flows into a telemetry sink",
                    "spans and metrics are exported to normal-world "
                    "artifacts; pass redact()ed summaries or len(), "
                    "never key/plaintext bytes", "a telemetry sink")
        elif tail in self.config.log_methods and receiver is not None:
            dotted = dotted_name(node.func, self.aliases) or ""
            if "log" in dotted.split(".")[0].lower() or "logg" in dotted:
                if arg_labels:
                    yield _SinkHit(
                        node, arg_labels,
                        "secret passed to a logging call",
                        "log derived metadata, never secret bytes",
                        "a logging call")
        elif tail in self.config.untrusted_write_calls and arg_labels:
            yield _SinkHit(
                node, arg_labels,
                f"secret written to untrusted storage via {tail}()",
                "encrypt or seal before anything leaves the enclave",
                f"{tail}()")
        elif tail == "store" and receiver is not None and arg_labels:
            dotted = dotted_name(receiver, self.aliases) or ""
            if dotted.split(".")[-1] in self.config.untrusted_write_receivers:
                yield _SinkHit(
                    node, arg_labels, "secret written to untrusted flash",
                    "encrypt or seal before anything leaves the enclave",
                    "untrusted flash")
        elif tail == "write" and isinstance(receiver, ast.Name) \
                and receiver.id in self.file_handles and arg_labels:
            yield _SinkHit(
                node, arg_labels, "secret written to a host file",
                "host files are outside every trust boundary here",
                "a host file")
        elif tail == "write" and receiver is not None and arg_labels:
            dotted = dotted_name(receiver, self.aliases) or ""
            if dotted.split(".")[-1] == "bus" and any(
                    (dotted_name(arg, self.aliases) or "").endswith(
                        "World.NORMAL") for arg in args):
                yield _SinkHit(
                    node, arg_labels,
                    "secret written to normal-world memory",
                    "route secret bytes through enclave-locked regions "
                    "only", "normal-world memory")

        # Interprocedural: an argument handed to a callee whose summary
        # says that parameter reaches a sink inside it.
        for info, param, labels, description in self._forwarded_sinks(node):
            yield _SinkHit(
                node, labels,
                f"secret argument flows into a leak sink inside "
                f"{info.name}()",
                f"inside {info.qualname} the value reaches {description}; "
                f"declassify (redact()/len()) before the call",
                description)

    def _forwarded_sinks(self, node: ast.Call):
        for info in self._resolve(node):
            summary = self.summaries.get(info.qualname, _EMPTY_SUMMARY)
            sinks = summary.sinks()
            if not sinks:
                continue
            binding = self._bind(node, info)
            if binding is None:
                continue
            for param, description in sorted(sinks.items()):
                labels = binding.get(param, _EMPTY)
                if labels:
                    yield info, param, labels, description


# --- summaries and the global fixpoint --------------------------------------


def _summarize(info: FunctionInfo, index: ProjectIndex,
               summaries: dict[str, TaintSummary],
               config: AnalysisConfig) -> TaintSummary:
    seed = {param: frozenset({param}) for param in info.params}
    scope = _LabelScope(info.module, info.nodes, seed, config, index=index,
                        summaries=summaries, class_name=info.class_name)
    scope.solve()
    returned = [node.value for node in info.nodes
                if isinstance(node, ast.Return) and node.value is not None]
    returns = frozenset().union(*map(scope.labels_of, returned))
    lengths = {len(value.elts) if isinstance(value, ast.Tuple) and not any(
        isinstance(elt, ast.Starred) for elt in value.elts) else -1
        for value in returned}
    elements = tuple(
        frozenset().union(*(scope.labels_of(value.elts[position])
                            for value in returned))
        for position in range(max(lengths) if len(lengths) == 1 else 0))
    # ``self``/``cls`` never count as forwarded sinks: a method that
    # interpolates its *own* attributes into an error message is
    # describing its configuration, not leaking the caller's argument.
    param_set = set(info.params) - {"self", "cls"}
    sinks: dict[str, str] = {}
    for hit in scope.sink_hits():
        for param in sorted(hit.labels & param_set):
            sinks.setdefault(param, hit.description)
    return TaintSummary(returns=returns, elements=elements,
                        param_sinks=tuple(sorted(sinks.items())))


def _through(labels: frozenset, binding: dict[str, frozenset]) -> set:
    """Callee summary ``labels`` in the caller's terms: ``<secret>``
    stays, a parameter name becomes its argument's labels."""
    out: set = set()
    for label in labels:
        if label == SECRET:
            out.add(SECRET)
        else:
            out |= binding.get(label, _EMPTY)
    return out


def compute_summaries(index: ProjectIndex, config: AnalysisConfig
                      ) -> dict[str, TaintSummary]:
    """Worklist iteration to a fixpoint: every function is summarized
    once, then again only when the summary of a callee it resolves
    changed.  Label sets only grow, so this terminates; the budget is a
    safety net for pathological mutual recursion.

    Summaries are keyed by qualname.  When two defs share one (a name
    redefined in ``if``/``else`` branches), the one
    :attr:`ProjectIndex.by_qualname` holds owns the summary, as it does
    for resolution; the shadowed def is not summarized."""
    functions = [info for info in index.functions
                 if index.by_qualname[info.qualname] is info]
    readers: dict[str, dict[FunctionInfo, None]] = {}
    for info in functions:
        for node in info.nodes:
            if isinstance(node, ast.Call):
                for callee in index.resolve(node.func, info.module,
                                            info.class_name):
                    readers.setdefault(callee.qualname, {})[info] = None

    summaries: dict[str, TaintSummary] = {}
    queue = deque(functions)
    queued = set(functions)
    budget = _MAX_GLOBAL_ITERATIONS * len(functions)
    while queue and budget:
        budget -= 1
        info = queue.popleft()
        queued.discard(info)
        new = _summarize(info, index, summaries, config)
        old = summaries.get(info.qualname, _EMPTY_SUMMARY)
        summaries[info.qualname] = new
        if new != old:
            for reader in readers.get(info.qualname, ()):
                if reader not in queued:
                    queued.add(reader)
                    queue.append(reader)
    return summaries


@register
class SecretTaintRule(Rule):
    name = "secret-taint"
    description = "interprocedural dataflow from key/plaintext/audio " \
                  "secrets into logging, messages, and untrusted writes"

    def check_project(self, modules: list[ModuleInfo],
                      config: AnalysisConfig):
        index = ProjectIndex(modules)
        summaries = compute_summaries(index, config)
        findings: list[Finding] = []

        for module in modules:
            scope = _LabelScope(module, module.scope_nodes(module.tree), {},
                                config, index=index, summaries=summaries)
            scope.solve()
            findings.extend(self._findings(module, scope))

        for info in index.functions:
            seed = {}
            for param in info.params:
                labels = {param}
                if param in config.secret_params:
                    labels.add(SECRET)
                seed[param] = frozenset(labels)
            scope = _LabelScope(info.module, info.nodes, seed, config,
                                index=index, summaries=summaries,
                                class_name=info.class_name)
            scope.solve()
            findings.extend(self._findings(info.module, scope))
        return findings

    def _findings(self, module: ModuleInfo, scope: _LabelScope):
        for hit in scope.sink_hits():
            if SECRET in hit.labels:
                yield Finding(
                    path=module.path, line=hit.node.lineno,
                    col=hit.node.col_offset, rule=self.name,
                    message=hit.message, hint=hit.hint)
