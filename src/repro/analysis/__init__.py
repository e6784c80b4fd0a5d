"""AST-based invariant checker for the OMG reproduction.

The runtime enforces the paper's security argument dynamically — the
TZASC blocks normal-world reads, teardown scrubs enclave memory, the
chaos harness scans physical memory for plaintext.  This package checks
the same invariants *statically*, on every code path, including the ones
no test executes:

``secret-taint``
    Interprocedural dataflow from declared secret sources (AES keys,
    license keys, decrypted model bytes, trusted-path audio buffers)
    into leak sinks: logging/print, interpolated exception messages,
    ``str``/``repr``, untrusted-flash writes, normal-world bus writes,
    telemetry spans/metrics.  Per-function summaries are iterated to a
    fixpoint over the whole-program call graph, so a secret handed two
    helpers deep into a sink is reported at the call site.
``consttime``
    Constant-time discipline for ``crypto/``: no secret-dependent
    branches, loop bounds, or table indices (the cache-timing sinks
    the L1/L2 probes exploit).  The pinned scalar AES reference is
    allowlisted by qualified name; other modeled leaks carry inline
    waivers.
``layering``
    The import DAG errors -> {faults, obs, sanitizers} -> crypto -> hw
    -> {tflm, audio} -> trustzone -> {sanctuary, train} -> core ->
    {attacks, baselines, serve} -> eval -> cli.  ``repro.hw`` must
    never import ``repro.sanctuary``.
``determinism``
    No wall clocks, no OS entropy, no implicitly-seeded RNG: fault and
    chaos transcripts are only replayable because every bit of
    randomness and time flows through seeded DRBGs and the virtual
    clock.  Import *and* assignment aliases are resolved.
``zeroization``
    Every function that registers a fresh secret-bearing region must
    scrub/tear it down (directly or transitively) on every CFG path —
    exception edges and per-continuation ``finally`` copies included —
    or hand ownership to its caller.

True-by-design exceptions carry an inline waiver::

    t0 = time.perf_counter()  # analysis: allow(determinism)

Waivers live in comments only (this docstring's example does not
count), and a waiver that stops suppressing anything becomes an
``unused-waiver`` finding itself.

Run as ``python -m repro.analysis [paths]`` or ``repro-omg analyze``.
Inline waivers are the only suppression: any other finding fails the
run.  Every run analyzes the whole tree from source, with nothing kept
between runs: the taint summaries reach their fixpoint on a worklist
that re-summarizes a function only when a callee's summary changed, so
a cold run over ``src/repro`` takes a few seconds.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    ModuleInfo,
    load_module,
    run_analysis,
)
from repro.analysis.reporting import render_human, render_json, render_sarif

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "load_module",
    "main",
    "render_human",
    "render_json",
    "render_sarif",
    "run_analysis",
]


def main(argv: list[str] | None = None) -> int:
    """Entry point shared by ``python -m repro.analysis`` and the CLI."""
    import argparse
    import os
    import sys

    import repro.analysis.rules  # noqa: F401  (registers RULES)
    from repro.analysis.engine import RULES

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static invariant checks for the OMG reproduction")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: the "
                             "installed repro package)")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", dest="format",
                        help="report format (default: human)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="alias for --format json (kept for "
                             "compatibility)")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="NAME", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    args = parser.parse_args(argv)

    paths = args.paths
    if not paths:
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    result = run_analysis(paths, rules=args.rule)
    fmt = "json" if args.as_json else args.format
    if fmt == "json":
        out = render_json(result)
    elif fmt == "sarif":
        out = render_sarif(result)
    else:
        out = render_human(result)
    print(out, file=sys.stdout)
    return 1 if result.findings else 0
