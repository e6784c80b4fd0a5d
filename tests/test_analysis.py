"""Static-analysis engine: every rule catches its planted violation,
stays quiet on the clean twin, honours waivers, and the real tree under
``src/repro`` merges with zero findings."""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.analysis import render_human, render_json, run_analysis
from repro.analysis.engine import RULES, load_module

pytestmark = pytest.mark.analysis

_SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro")


@pytest.fixture
def fixture_tree(tmp_path):
    """Writer for fake ``repro.<pkg>.<mod>`` files under tmp_path."""
    def write(relpath: str, source: str) -> str:
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != tmp_path.parent:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            if parent.name == "repro":
                break
            parent = parent.parent
        path.write_text(textwrap.dedent(source))
        return str(path)
    return write


def _run(path_or_dir, rule=None):
    rules = [rule] if rule else None
    return run_analysis([path_or_dir], rules=rules)


def _run_with_config(path_or_dir, config, rule=None):
    rules = [rule] if rule else None
    return run_analysis([path_or_dir], rules=rules, config=config)


def _messages(result):
    return [f.message for f in result.findings]


# --- determinism ------------------------------------------------------------

def test_determinism_flags_wall_clock_and_entropy(fixture_tree):
    path = fixture_tree("repro/hw/bad_time.py", """\
        import time
        import os
        from random import choice


        def stamp():
            return time.time()


        def entropy():
            return os.urandom(16)
        """)
    result = _run(path, rule="determinism")
    messages = _messages(result)
    assert any("time.time()" in m for m in messages)
    assert any("os.urandom()" in m for m in messages)
    assert any("nondeterministic module 'random'" in m for m in messages)


def test_determinism_requires_explicit_rng_seed(fixture_tree):
    path = fixture_tree("repro/train/bad_rng.py", """\
        import numpy as np


        def implicit():
            return np.random.default_rng()


        def global_state(n):
            return np.random.permutation(n)
        """)
    messages = _messages(_run(path, rule="determinism"))
    assert any("without an explicit seed" in m for m in messages)
    assert any("global-state RNG" in m for m in messages)


def test_determinism_clean_on_seeded_virtual_clock_code(fixture_tree):
    path = fixture_tree("repro/train/good_rng.py", """\
        import numpy as np


        def seeded(seed):
            rng = np.random.default_rng(seed)
            return rng.normal(size=4)


        def timed(soc):
            return soc.clock.now_ms
        """)
    assert _run(path, rule="determinism").findings == []


# --- layering ---------------------------------------------------------------

def test_layering_flags_back_edge(fixture_tree):
    path = fixture_tree("repro/hw/bad_import.py", """\
        from repro.sanctuary import enclave


        def peek():
            return enclave
        """)
    messages = _messages(_run(path, rule="layering"))
    assert messages == ["layer back-edge: hw (rank 3) imports sanctuary "
                        "(rank 6)"]


def test_layering_allows_downward_and_lazy_imports(fixture_tree):
    path = fixture_tree("repro/sanctuary/good_import.py", """\
        from repro.hw import memory
        from repro.crypto import rng


        def lazy():
            from repro.core import omg  # sanctioned inversion escape
            return omg, memory, rng
        """)
    assert _run(path, rule="layering").findings == []


def test_layering_keeps_analysis_self_contained():
    analysis_dir = os.path.join(_SRC_REPRO, "analysis")
    result = _run(analysis_dir, rule="layering")
    assert result.findings == []
    # And the rule would catch a runtime import from the checker.
    module = load_module(os.path.join(analysis_dir, "engine.py"))
    assert module.package == "analysis"


def test_layering_self_contained_violation(fixture_tree):
    path = fixture_tree("repro/analysis/bad_dep.py", """\
        from repro.crypto import aes
        """)
    messages = _messages(_run(path, rule="layering"))
    assert messages == ["self-contained package 'analysis' imports "
                        "repro.crypto"]


# --- secret-taint -----------------------------------------------------------

def test_taint_flags_exception_interpolation_and_print(fixture_tree):
    path = fixture_tree("repro/crypto/bad_leak.py", """\
        def unwrap(key: bytes, blob: bytes) -> bytes:
            material = key
            if not blob:
                raise ValueError(f"no blob for key {material!r}")
            print("debug:", material)
            return blob
        """)
    messages = _messages(_run(path, rule="secret-taint"))
    assert "secret flows into an exception message" in messages
    assert "secret passed to print()" in messages


def test_taint_flags_untrusted_write_of_decrypted_model(fixture_tree):
    path = fixture_tree("repro/core/bad_store.py", """\
        def persist(ctx, encrypted, key):
            model_bytes = decrypt_model(encrypted, key)
            ctx.store_untrusted("omg/model.bin", model_bytes)
        """)
    messages = _messages(_run(path, rule="secret-taint"))
    assert messages == [
        "secret written to untrusted storage via store_untrusted()"]


def test_taint_flags_secret_piped_into_telemetry_sink(fixture_tree):
    path = fixture_tree("repro/serve/bad_span.py", """\
        def observe_request(tracer, metrics, key, blob):
            plaintext = gcm_decrypt(key, blob)
            span = tracer.start_span("serve.request")
            span.set_attribute("payload", plaintext)
            span.add_event("unseal", material=key)
            metrics.histogram("bytes", "h").observe(len(blob), key=key)
        """)
    messages = _messages(_run(path, rule="secret-taint"))
    assert messages.count("secret flows into a telemetry sink") == 3


def test_taint_clean_on_redacted_telemetry(fixture_tree):
    path = fixture_tree("repro/serve/good_span.py", """\
        def observe_request(tracer, metrics, key, blob):
            plaintext = gcm_decrypt(key, blob)
            span = tracer.start_span("serve.request")
            span.set_attribute("payload", redact(plaintext))
            span.set_attribute("key_bytes", len(key))
            metrics.histogram("bytes", "h").observe(len(plaintext))
        """)
    assert _run(path, rule="secret-taint").findings == []


def test_taint_clean_on_declassified_flows(fixture_tree):
    path = fixture_tree("repro/core/good_flow.py", """\
        def provision(ctx, model_bytes, key, nonce):
            blob = gcm_encrypt(key, nonce, model_bytes)
            ctx.store_untrusted("omg/model.enc", blob)
            raise ValueError(f"key must be 16 bytes, got {len(key)}")
        """)
    assert _run(path, rule="secret-taint").findings == []


# --- zeroization ------------------------------------------------------------

def test_zeroization_flags_unscrubbed_exits(fixture_tree):
    path = fixture_tree("repro/sanctuary/bad_scrub.py", """\
        def launch_leaky(monitor, soc, region):
            monitor.lock_region_to_core(region, 1)
            if region.size > 4096:
                raise ValueError("oversized enclave region")
            return None
        """)
    messages = _messages(_run(path, rule="zeroization"))
    assert any("propagate an exception" in m for m in messages)
    assert any("returns without scrubbing" in m for m in messages)


def test_zeroization_accepts_finally_panic_and_transfer(fixture_tree):
    path = fixture_tree("repro/sanctuary/good_scrub.py", """\
        def launch_guarded(monitor, soc, region):
            monitor.lock_region_to_core(region, 1)
            try:
                soc.boot()
            finally:
                soc.memory.scrub(region.base, region.size)


        def launch_failclosed(runtime, monitor, region, instance):
            monitor.lock_region_to_core(region, 1)
            try:
                instance.boot()
            except Exception:
                instance.panic()
                raise
            return instance


        def rebind(self, monitor):
            monitor.lock_region_to_core(self.region, 2)
        """)
    assert _run(path, rule="zeroization").findings == []


def test_zeroization_release_is_transitive_via_call_graph(fixture_tree):
    path = fixture_tree("repro/sanctuary/transitive.py", """\
        def cleanup(soc, region):
            soc.memory.scrub(region.base, region.size)


        def launch_indirect(monitor, soc, region):
            monitor.lock_region_to_core(region, 1)
            try:
                soc.boot()
            except Exception:
                cleanup(soc, region)
                raise
            return region
        """)
    assert _run(path, rule="zeroization").findings == []


# --- waivers, reporters ----------------------------------------------------

def test_waiver_suppresses_single_rule(fixture_tree):
    path = fixture_tree("repro/eval/waived.py", """\
        import time


        def bench():
            t0 = time.perf_counter()  # analysis: allow(determinism)
            # analysis: allow(determinism)
            t1 = time.perf_counter()
            return t1 - t0
        """)
    result = _run(path, rule="determinism")
    assert result.findings == []
    assert len(result.waived) == 2


def test_waiver_does_not_cover_other_rules(fixture_tree):
    path = fixture_tree("repro/eval/miswaived.py", """\
        import time


        def bench():
            return time.perf_counter()  # analysis: allow(secret-taint)
        """)
    result = _run(path, rule="determinism")
    assert len(result.findings) == 1


def test_syntax_error_is_a_finding(fixture_tree):
    path = fixture_tree("repro/hw/broken.py", "def oops(:\n")
    result = _run(path)
    assert [f.rule for f in result.findings] == ["syntax"]


def test_reporters_and_rule_registry(fixture_tree):
    path = fixture_tree("repro/hw/one_bad.py", """\
        import time


        def stamp():
            return time.time()
        """)
    result = _run(path)
    human = render_human(result)
    assert "[determinism]" in human and "fix:" in human
    payload = json.loads(render_json(result))
    assert payload["findings"][0]["rule"] == "determinism"
    assert set(RULES) == {"consttime", "determinism", "layering",
                          "secret-taint", "zeroization"}


def test_rule_filter_accepted_in_fresh_process(fixture_tree):
    """``--rule`` choices must be populated before any analysis runs —
    registration is lazy, so an in-process test can pass on import-order
    luck that a cold ``python -m repro.analysis`` invocation lacks."""
    import subprocess
    import sys

    path = fixture_tree("repro/hw/empty.py", "X = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--rule", "zeroization",
         path],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert "invalid choice" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, (proc.stdout, proc.stderr)


# --- the real tree ----------------------------------------------------------

def test_full_suite_over_src_repro_is_clean():
    result = run_analysis([_SRC_REPRO])
    assert result.findings == [], render_human(result)
    # The intentional wall-clock read (telemetry wall stamps), the
    # keycache's dict-addressing consttime exceptions, and the fleet
    # cohort-registration taint false positive (the coarse param
    # summary flags register_cohort's identifier-only error
    # message) are waived inline; none of them may go stale (a stale
    # waiver would surface as an unused-waiver finding above).
    assert len(result.waived) == 5
    assert result.waiver_lines == 5
    assert result.files > 100


# --- consttime --------------------------------------------------------------

def test_consttime_flags_secret_dependent_control_flow(fixture_tree):
    path = fixture_tree("repro/crypto/ct_bad.py", """\
        TABLE = list(range(256))


        def leaky(key: bytes) -> int:
            acc = 0
            if key[0] & 1:
                acc += 1
            for _ in range(key[1]):
                acc += 1
            return TABLE[key[2] & 0xFF]
        """)
    messages = _messages(_run(path, rule="consttime"))
    assert any("secret-dependent branch" in m for m in messages)
    assert any("secret-dependent loop bound" in m for m in messages)
    assert any("secret-dependent table index" in m for m in messages)


def test_consttime_comparison_results_stay_tainted(fixture_tree):
    """Branching on an equality *with* a secret is the timing channel;
    leak tracking declassifies comparisons, consttime must not."""
    path = fixture_tree("repro/crypto/ct_cmp.py", """\
        def check(key: bytes, guess: bytes) -> bool:
            matched = key == guess
            if matched:
                return True
            return False
        """)
    messages = _messages(_run(path, rule="consttime"))
    assert any("secret-dependent branch" in m for m in messages)
    # The same flow must NOT be a secret-taint finding (no leak sink).
    assert _run(path, rule="secret-taint").findings == []


def test_consttime_comprehensions_carry_their_element_labels(fixture_tree):
    """A list of secret tables collected by a comprehension is secret to
    consttime: a value read from it is secret, so indexing with that
    value is flagged (and only that index — the first is public)."""
    path = fixture_tree("repro/crypto/ct_comp.py", """\
        def lookup(owners, index: int) -> int:
            tables = [owner._ek for owner in owners]
            state = tables[0][index]
            return tables[1][state]
        """)
    messages = _messages(_run(path, rule="consttime"))
    assert messages == ["secret-dependent table index"]


def test_consttime_clean_code_and_declassified_bounds(fixture_tree):
    path = fixture_tree("repro/crypto/ct_good.py", """\
        def masked(key: bytes) -> int:
            acc = 0
            for index in range(len(key)):
                acc ^= key[index]
            return acc
        """)
    assert _run(path, rule="consttime").findings == []


def test_consttime_only_applies_to_crypto_package(fixture_tree):
    path = fixture_tree("repro/serve/not_crypto.py", """\
        def branchy(key: bytes) -> int:
            if key[0] & 1:
                return 1
            return 0
        """)
    assert _run(path, rule="consttime").findings == []


def test_consttime_allowlist_exempts_by_qualname(fixture_tree):
    from repro.analysis.config import AnalysisConfig

    source = """\
        def leaky(key: bytes) -> int:
            if key[0] & 1:
                return 1
            return 0
        """
    path = fixture_tree("repro/crypto/ct_allow.py", source)
    config = AnalysisConfig(
        consttime_allowlist=frozenset({"repro.crypto.ct_allow.leaky"}))
    assert _run_with_config(path, config, rule="consttime").findings == []
    assert _run(path, rule="consttime").findings != []


def test_ghash_table_lookups_are_visible_to_consttime():
    """The GHASH kernels index H-derived tables with secret-dependent
    state bytes.  Without their allowlist entries the rule flags those
    lookups, and nothing else in the module: the lazily built tables
    carry no secret-dependent branch."""
    import ast
    import dataclasses

    from repro.analysis.config import CONSTTIME_ALLOWLIST, AnalysisConfig

    kernels = {"_TableGhash._ghash_scalar", "_frame_ghash"}
    path = os.path.join(_SRC_REPRO, "crypto", "modes.py")
    config = dataclasses.replace(
        AnalysisConfig(),
        consttime_allowlist=CONSTTIME_ALLOWLIST - {
            f"repro.crypto.modes.{name}" for name in kernels})
    findings = _run_with_config(path, config, rule="consttime").findings
    with open(path) as handle:
        tree = ast.parse(handle.read())
    spans = {f"{cls.name}.{func.name}": range(func.lineno,
                                              func.end_lineno + 1)
             for cls in tree.body if isinstance(cls, ast.ClassDef)
             for func in cls.body if isinstance(func, ast.FunctionDef)}
    spans.update({func.name: range(func.lineno, func.end_lineno + 1)
                  for func in tree.body
                  if isinstance(func, ast.FunctionDef)})
    owners = [{name for name in kernels if finding.line in spans[name]}
              for finding in findings]
    assert all(len(owner) == 1 for owner in owners)
    assert set().union(*owners) == kernels
    assert {finding.message for finding in findings} == {
        "secret-dependent table index"}


def test_consttime_config_names_exist():
    """A stale inline waiver is a finding, but a stale allowlist entry
    or secret-attribute name would silently match nothing: every
    allowlisted qualname must be a function under ``src/repro``, and
    every secret attribute must be defined or assigned in ``crypto/``."""
    import ast

    from repro.analysis.config import (
        CONSTTIME_ALLOWLIST,
        CONSTTIME_SECRET_ATTRIBUTES,
    )
    from repro.analysis.callgraph import module_functions
    from repro.analysis.engine import iter_python_files

    qualnames, attributes = set(), set()
    crypto = os.path.join(_SRC_REPRO, "crypto") + os.sep
    for path in iter_python_files([_SRC_REPRO]):
        module = load_module(path)
        qualnames.update(info.qualname for info in module_functions(module))
        if not path.startswith(crypto):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                attributes.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)):
                attributes.add(node.attr)
    assert CONSTTIME_ALLOWLIST - qualnames == set()
    assert CONSTTIME_SECRET_ATTRIBUTES - attributes == set()


def test_public_attributes_each_silence_a_finding():
    """A ``PUBLIC_ATTRIBUTES`` entry exempts its name on every object,
    so a stale one would widen the taint rule's blind spot for nothing:
    dropping any single entry must make ``secret-taint`` report at least
    one finding over ``src/repro``."""
    import dataclasses

    from repro.analysis.config import DEFAULT_CONFIG, PUBLIC_ATTRIBUTES

    assert _run(_SRC_REPRO, rule="secret-taint").findings == []
    idle = []
    for name in sorted(PUBLIC_ATTRIBUTES):
        config = dataclasses.replace(
            DEFAULT_CONFIG, public_attributes=PUBLIC_ATTRIBUTES - {name})
        if not _run_with_config(_SRC_REPRO, config,
                                rule="secret-taint").findings:
            idle.append(name)
    assert idle == []


# --- interprocedural taint --------------------------------------------------

def test_taint_two_hops_through_helpers(fixture_tree):
    path = fixture_tree("repro/core/twohop.py", """\
        def emit(value):
            print(value)


        def forward(data):
            emit(data)


        def handler(key: bytes):
            forward(key)
        """)
    result = _run(path, rule="secret-taint")
    messages = _messages(result)
    assert any("flows into a leak sink inside forward" in m
               for m in messages)
    # The finding lands at handler's call site, not inside the helpers.
    assert all(f.line >= 9 for f in result.findings)


def test_taint_declassified_argument_is_clean(fixture_tree):
    path = fixture_tree("repro/core/twohop_ok.py", """\
        def emit(value):
            print(value)


        def handler(key: bytes):
            emit(len(key))
            emit(redact(key))
        """)
    assert _run(path, rule="secret-taint").findings == []


def test_taint_public_argument_through_same_helper_is_clean(fixture_tree):
    """A helper whose parameter is named ``key`` must not taint calls
    that pass public values (summaries seed parameters with their own
    label, not SECRET)."""
    path = fixture_tree("repro/core/pubflow.py", """\
        def wrap(key):
            return key


        def emit(value):
            print(value)


        def handler(public_config):
            emit(wrap(public_config))
        """)
    assert _run(path, rule="secret-taint").findings == []


def test_taint_tuple_unpacking_labels_each_returned_element(fixture_tree):
    """``a, b = f(key)`` labels each target by f's own returned tuple
    element; a tuple f returns but does not display taints them all."""
    path = fixture_tree("repro/core/unpack.py", """\
        def build(secret, size):
            return Holder(secret), [0] * size


        def opaque(secret):
            pair = (Holder(secret), [])
            return pair


        def handler(key: bytes, size: int):
            holder, slots = build(key, size)
            print(slots)
            print(holder)
            kept, rest = opaque(key)
            print(rest)
        """)
    result = _run(path, rule="secret-taint")
    assert sorted(f.line for f in result.findings) == [13, 15]


def test_taint_redefined_nested_def_is_summarized(fixture_tree):
    """Two defs share the qualname ``outer.run``; only the second, the
    one calls resolve to, forwards its parameter into ``print`` — via
    helpers summarized after it, so its summary changes only once the
    worklist re-queues it."""
    path = fixture_tree("repro/core/redefined.py", """\
        def outer(key, flag):
            if flag:
                def run(value):
                    return None
            else:
                def run(value):
                    emit(value)
            run(key)


        def emit(value):
            relay(value)


        def relay(value):
            print(value)
        """)
    result = _run(path, rule="secret-taint")
    assert [(f.line, f.message) for f in result.findings] == [
        (8, "secret argument flows into a leak sink inside run()")]


_LEAK_DEF = """\
def leak(key):
    if key[0] & 1:
        print(key)
"""


@pytest.mark.parametrize("opener,indent", [
    ("try:\n    import fastcrypto\nexcept ImportError:\n", 4),
    ("for _ in range(1):\n", 4),
    ("while False:\n    pass\nelse:\n", 4),
    ("try:\n    pass\nfinally:\n", 4),
    ("match 1:\n    case 1:\n", 8),
])
def test_rules_judge_defs_in_every_statement_body(fixture_tree, opener,
                                                   indent):
    """A def under an ``except`` handler, in a loop body, an ``else`` or
    ``finally`` block, or a ``match`` case is indexed, so secret-taint
    sees its leak and consttime its secret-dependent branch."""
    body = textwrap.indent(_LEAK_DEF, " " * indent)
    path = fixture_tree("repro/crypto/nested_def.py", opener + body)
    leaks = _run(path, rule="secret-taint").findings
    assert [f.message for f in leaks] == ["secret passed to print()"]
    branches = _messages(_run(path, rule="consttime"))
    assert any("secret-dependent branch" in m for m in branches)


def test_taint_summaries_are_a_fixpoint_over_src_repro():
    """Every summary the worklist settles on is what ``_summarize``
    computes from the final summaries: nothing is left stale."""
    from repro.analysis.callgraph import ProjectIndex
    from repro.analysis.config import DEFAULT_CONFIG
    from repro.analysis.engine import iter_python_files
    from repro.analysis.rules.taint import _summarize, compute_summaries

    index = ProjectIndex([load_module(path)
                          for path in iter_python_files([_SRC_REPRO])])
    summaries = compute_summaries(index, DEFAULT_CONFIG)
    assert summaries.keys() == index.by_qualname.keys()
    stale = [info.qualname for info in index.functions
             if summaries[info.qualname] != _summarize(
                 info, index, summaries, DEFAULT_CONFIG)]
    assert stale == []


# --- zeroization on exception edges -----------------------------------------

def test_zeroization_exception_path_through_conditional(fixture_tree):
    """Scrub on the fall-through path only: the exception edge out of
    the ``boot()`` call escapes with the region still held."""
    path = fixture_tree("repro/sanctuary/cond_scrub.py", """\
        def launch(monitor, soc, region):
            monitor.lock_region_to_core(region, 1)
            soc.boot()
            soc.memory.scrub(region.base, region.size)
        """)
    assert _run(path, rule="zeroization").findings == []

    path = fixture_tree("repro/sanctuary/cond_scrub_bad.py", """\
        def launch(monitor, soc, region, fast):
            monitor.lock_region_to_core(region, 1)
            try:
                soc.boot()
            finally:
                if fast:
                    soc.memory.scrub(region.base, region.size)
        """)
    messages = _messages(_run(path, rule="zeroization"))
    assert any("fall through holding" in m for m in messages)


# --- unused waivers ---------------------------------------------------------

def test_stale_waiver_becomes_finding(fixture_tree):
    path = fixture_tree("repro/hw/stale.py", """\
        X = 1  # analysis: allow(determinism)
        """)
    result = _run(path)
    assert [f.rule for f in result.findings] == ["unused-waiver"]
    assert "suppresses no finding" in result.findings[0].message


def test_stale_waiver_not_reported_when_rule_not_selected(fixture_tree):
    """A waiver can only be judged stale when its rule actually ran."""
    path = fixture_tree("repro/hw/stale2.py", """\
        X = 1  # analysis: allow(determinism)
        """)
    assert _run(path, rule="secret-taint").findings == []


def test_used_waiver_is_counted_not_flagged(fixture_tree):
    path = fixture_tree("repro/hw/waived.py", """\
        import time


        def stamp():
            return time.time()  # analysis: allow(determinism)
        """)
    result = _run(path, rule="determinism")
    assert result.findings == []
    assert len(result.waived) == 1
    assert result.waiver_lines == 1


# --- determinism assignment aliases -----------------------------------------

def test_determinism_assignment_alias_is_resolved(fixture_tree):
    path = fixture_tree("repro/hw/alias_assign.py", """\
        import time

        now = time.time


        def stamp():
            return now()
        """)
    messages = _messages(_run(path, rule="determinism"))
    assert any("time.time()" in m for m in messages)


def test_determinism_import_aliases_are_resolved(fixture_tree):
    path = fixture_tree("repro/hw/alias_import.py", """\
        from time import time as now
        import numpy.random as npr


        def stamp():
            return now()


        def draw():
            return npr.rand()
        """)
    messages = _messages(_run(path, rule="determinism"))
    assert any("time.time()" in m for m in messages)
    assert any("numpy global-state RNG" in m for m in messages)


# --- SARIF ------------------------------------------------------------------

def test_sarif_render_includes_findings_and_suppressions(fixture_tree):
    from repro.analysis import render_sarif

    path = fixture_tree("repro/hw/sarif_mod.py", """\
        import time


        def bad():
            return time.time()


        def waived():
            return time.time()  # analysis: allow(determinism)
        """)
    payload = json.loads(render_sarif(_run(path, rule="determinism")))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-omg-analyze"
    levels = [r["level"] for r in run["results"]]
    assert "error" in levels and "note" in levels
    suppressed = [r for r in run["results"] if r["level"] == "note"]
    assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
    assert run["invocations"][0]["executionSuccessful"] is False


def test_sarif_cli_format_flag(fixture_tree):
    import subprocess
    import sys

    path = fixture_tree("repro/hw/sarif_cli.py", "X = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "sarif",
         path],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.dirname(_SRC_REPRO)})
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    payload = json.loads(proc.stdout)
    assert payload["runs"][0]["invocations"][0]["executionSuccessful"]
