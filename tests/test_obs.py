"""Secret-safe observability: tracing, metrics, exporters, hooks.

These tests pin the subsystem's contract: spans are stamped on the
virtual clock with deterministic identifiers, every value entering a
span or metric passes the ``redact`` gate, exports are valid
Chrome-trace JSON / Prometheus text, the disabled path costs one
``None`` check, and — the security property — no key or plaintext byte
ever appears in any export of an instrumented provision→serve run.
"""

import json
import math

import numpy as np
import pytest

from repro.errors import ObsError, ReproError
from repro.eval.bench import KEY_BITS, serving_stack
from repro.hw.timing import VirtualClock
from repro.obs import (
    MetricsRegistry,
    SpanContext,
    Telemetry,
    TraceBuffer,
    Tracer,
    hooks,
    redact,
    render_summary,
    to_chrome_trace,
    to_prometheus,
)
from repro.serve import Priority, ServeConfig
from repro.tflm.serialize import serialize_model
from repro.trustzone.worlds import make_platform

from .helpers import build_tiny_int8_model, tiny_stack

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _hooks_start_and_end_clean():
    assert hooks.TELEMETRY is None
    yield
    hooks.uninstall()


def make_telemetry(**kwargs):
    return Telemetry(VirtualClock(), **kwargs)


# --- redaction gate ------------------------------------------------------

def test_redact_passes_primitives_through():
    assert redact(None) is None
    assert redact(True) is True
    assert redact(42) == 42
    assert redact(2.5) == 2.5
    assert redact("batch=4") == "batch=4"


def test_redact_summarizes_bytes_without_content():
    key = b"\x13" * 32
    assert redact(key) == "<bytes:32>"
    assert redact(bytearray(b"abc")) == "<bytes:3>"
    assert redact(memoryview(b"abcd")) == "<bytes:4>"


def test_redact_truncates_long_strings():
    out = redact("x" * 500)
    assert len(out) < 200
    assert out.endswith("<str:500>")


def test_redact_summarizes_ndarrays_as_shape_and_dtype():
    out = redact(np.zeros((49, 43), dtype=np.uint8))
    assert "49" in out and "43" in out and "uint8" in out
    assert redact(np.int64(7)) == 7  # scalars unwrap to plain numbers


def test_redact_recurses_bounded_into_containers():
    nested = {"key_material": b"\x00" * 16,
              "deep": {"deeper": {"deepest": {"bottom": 1}}},
              "items": list(range(100))}
    out = redact(nested)
    assert out["key_material"] == "<bytes:16>"
    assert len(out["items"]) <= 17  # bounded, with an overflow marker
    flat = json.dumps(out)
    assert "\\x00" not in flat and "AAAA" not in flat


# --- tracer --------------------------------------------------------------

def test_span_ids_are_deterministic_and_sequential():
    tracer = Tracer(VirtualClock())
    first = tracer.start_span("a")
    second = tracer.start_span("b")
    assert (first.trace_id, first.span_id) == (1, 1)
    assert (second.trace_id, second.span_id) == (2, 2)


def test_span_durations_come_from_the_virtual_clock():
    clock = VirtualClock()
    tracer = Tracer(clock, freq_hz=1e9)
    with tracer.span("work") as span:
        clock.advance_ms(3.0)
    assert span.duration_v_ns == 3_000_000
    assert span.cycles_at() == 3_000_000  # 1 GHz: one cycle per ns
    assert span.duration_wall_ns >= 0


def test_nested_spans_autoparent_via_context_manager():
    tracer = Tracer(VirtualClock())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current_span is inner
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert tracer.current_span is None


def test_context_propagates_across_a_byte_boundary():
    tracer = Tracer(VirtualClock())
    with tracer.span("normal-world"):
        wire = tracer.inject()
    assert len(wire) == 16
    child = tracer.start_span("secure-world", parent=wire)
    assert child.parent_id == tracer.extract(wire).span_id
    assert tracer.extract(b"") is None
    with pytest.raises(ObsError, match="16 bytes"):
        SpanContext.from_bytes(b"short")


def test_span_misuse_raises_obs_error():
    tracer = Tracer(VirtualClock())
    span = tracer.start_span("once")
    with pytest.raises(ObsError, match="has not ended"):
        _ = span.duration_v_ns
    span.end()
    with pytest.raises(ObsError, match="already ended"):
        span.end()
    with pytest.raises(ObsError, match="end before it starts"):
        tracer.record_span("backwards", 10, 5)


def test_trace_buffer_is_bounded_and_counts_drops():
    clock = VirtualClock()
    tracer = Tracer(clock, capacity=4)
    for index in range(7):
        tracer.start_span(f"s{index}").end()
    assert len(tracer.buffer) == 4
    assert tracer.buffer.dropped == 3
    assert tracer.buffer.appended == 7
    assert [s.name for s in tracer.finished_spans()] == \
        ["s3", "s4", "s5", "s6"]
    with pytest.raises(ObsError):
        TraceBuffer(capacity=0)


def test_span_attributes_and_events_pass_the_redact_gate():
    tracer = Tracer(VirtualClock())
    with tracer.span("handle", key_material=b"\xaa" * 16) as span:
        span.add_event("unseal", plaintext=b"\xbb" * 64)
    assert span.attributes["key_material"] == "<bytes:16>"
    assert span.events[0]["attributes"]["plaintext"] == "<bytes:64>"


# --- metrics -------------------------------------------------------------

def test_counter_is_monotone_and_labeled():
    registry = MetricsRegistry()
    counter = registry.counter("omg_requests_total", "requests")
    counter.inc()
    counter.inc(2, core=1)
    assert counter.value() == 1.0
    assert counter.value(core=1) == 2.0
    with pytest.raises(ObsError, match="only go up"):
        counter.inc(-1)


def test_metric_values_must_be_finite_numbers():
    registry = MetricsRegistry()
    gauge = registry.gauge("omg_depth", "queue depth")
    with pytest.raises(ObsError):
        gauge.set(float("nan"))
    with pytest.raises(ObsError):
        gauge.set(True)  # a bool is a flag, not a measurement
    with pytest.raises(ObsError):
        gauge.set("deep")
    gauge.set(3)
    gauge.add(-1)
    assert gauge.value() == 2.0


def test_histogram_buckets_quantiles_and_overflow():
    registry = MetricsRegistry()
    histogram = registry.histogram("omg_latency_ms", "latency",
                                   buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 2.0, 5.0, 50.0):
        histogram.observe(value)
    assert histogram.count() == 4
    assert histogram.sum() == 57.5
    assert histogram.bucket_counts() == [1, 2, 1, 0]
    assert 1.0 <= histogram.quantile(0.5) <= 10.0
    histogram.observe(1e6)  # beyond the last bound
    assert histogram.quantile(0.999) == 100.0  # clamped to the last edge
    with pytest.raises(ObsError):
        registry.histogram("omg_bad", "h", buckets=(5.0, 1.0))


def test_registry_rejects_kind_mismatch_and_redacts_labels():
    registry = MetricsRegistry()
    registry.counter("omg_x", "x").inc(session=b"\x01" * 8)
    with pytest.raises(ObsError):
        registry.gauge("omg_x", "x")
    series = registry.snapshot()["omg_x"]["series"]
    assert series[0]["labels"] == {"session": "<bytes:8>"}


# --- exporters -----------------------------------------------------------

def test_chrome_trace_export_is_valid_and_virtual_time():
    clock = VirtualClock()
    telemetry = Telemetry(clock)
    clock.advance_ms(1.0)
    with telemetry.tracer.span("outer", core=1):
        clock.advance_ms(2.0)
    doc = to_chrome_trace(telemetry.tracer)
    json.loads(json.dumps(doc))  # round-trips as JSON
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 1
    assert events[0]["name"] == "outer"
    assert events[0]["ts"] == 1000.0   # µs of *virtual* time
    assert events[0]["dur"] == 2000.0
    assert events[0]["tid"] == 1       # the "core" attribute


def test_prometheus_export_has_cumulative_buckets():
    registry = MetricsRegistry()
    histogram = registry.histogram("omg_ms", "latency", buckets=(1.0, 5.0))
    histogram.observe(0.5)
    histogram.observe(3.0)
    registry.counter("omg_total", "count").inc(3)
    text = to_prometheus(registry)
    assert "# TYPE omg_ms histogram" in text
    assert 'omg_ms_bucket{le="1"} 1' in text
    assert 'omg_ms_bucket{le="5"} 2' in text
    assert 'omg_ms_bucket{le="+Inf"} 2' in text
    assert "omg_ms_sum 3.5" in text
    assert "omg_ms_count 2" in text
    assert "omg_total 3" in text


def test_summary_renders_spans_and_metrics():
    telemetry = make_telemetry()
    with telemetry.tracer.span("phase"):
        telemetry.clock.advance_ms(1.0)
    telemetry.metrics.counter("omg_n", "n").inc()
    text = render_summary(telemetry)
    assert "phase" in text and "omg_n" in text


# --- hooks: the zero-cost disabled path ----------------------------------

def test_hooks_default_off_and_install_is_exclusive():
    assert hooks.current() is None
    telemetry = make_telemetry()
    with hooks.installed(telemetry):
        assert hooks.current() is telemetry
        with pytest.raises(ReproError, match="already installed"):
            hooks.install(make_telemetry())
    assert hooks.current() is None


def test_hooks_uninstall_on_exception():
    with pytest.raises(RuntimeError):
        with hooks.installed(make_telemetry()):
            raise RuntimeError("boom")
    assert hooks.current() is None


def test_serving_untouched_with_telemetry_disabled():
    """With no bundle installed the instrumented stack records nothing
    anywhere — there is no registry or tracer to even allocate into."""
    service, loop, (handle,) = tiny_stack(
        Priority.INTERACTIVE, seed=b"obs-off", max_batch=2, num_workers=1)
    rng = np.random.default_rng(3)
    for fingerprint in rng.integers(0, 256, size=(2, 8, 6), dtype=np.uint8):
        service.submit(handle, fingerprint)
    assert loop.tick(force=True) == 1
    assert service.stats().requests_completed == 2
    assert hooks.TELEMETRY is None
    service.teardown()


# --- instrumented stack --------------------------------------------------

def serve_traced(telemetry, requests=4, max_batch=2, num_workers=1,
                 seed=3):
    """Drive a tiny provision→serve pass under ``telemetry``."""
    model = build_tiny_int8_model()
    platform = make_platform(seed=b"obs-serve", key_bits=KEY_BITS)
    with hooks.installed(telemetry):
        service, loop, (handle,) = serving_stack(
            platform, model,
            ServeConfig(max_batch=max_batch, num_workers=num_workers),
            [Priority.INTERACTIVE])
        rng = np.random.default_rng(seed)
        shape = (requests,) + service.fingerprint_shape
        for index, fingerprint in enumerate(
                rng.integers(0, 256, size=shape, dtype=np.uint8)):
            service.submit(handle, fingerprint)
            if (index + 1) % max_batch == 0:
                loop.tick()
        loop.run_until_idle(force=True)
        stats = service.stats()
        secrets = [bytes(handle.request_key), bytes(handle.response_key),
                   serialize_model(model)]
        service.teardown()
    return stats, secrets


def traced_stack(telemetry, seed, priorities, **config):
    """A one-worker :func:`~.helpers.tiny_stack` with a fixed batch
    target, its pool and sessions built under ``telemetry``."""
    with hooks.installed(telemetry):
        return tiny_stack(*priorities, seed=seed, num_workers=1,
                          loop_options={"adaptive": False}, **config)


def test_response_drops_are_labelled_by_reason():
    """Both post-inference drop sites feed one counter, told apart by a
    bounded ``reason`` label."""
    from repro import faults

    telemetry = make_telemetry()
    service, loop, (doomed, live) = traced_stack(
        telemetry, b"obs-drops", [Priority.INTERACTIVE] * 2, max_batch=4)
    fingerprints = np.random.default_rng(5).integers(
        0, 256, size=(3, 8, 6), dtype=np.uint8)
    with hooks.installed(telemetry):
        service.submit(doomed, fingerprints[0])
        service.submit(live, fingerprints[1])
        loop.tick()                  # both wait in the class queue
        service.close_session(doomed)
        loop.tick(force=True)        # doomed's response has no session
        plan = faults.FaultPlan(seed=5, rules=[
            faults.stall_nth_ring_reserve(2)])
        with faults.installed(plan):
            service.submit(live, fingerprints[2])   # reserve 1: ingress
            loop.tick(force=True)                   # reserve 2: egress
        assert plan.transcript_lines()
        stats = service.stats()
        service.teardown()
    assert stats.responses_dropped == 2
    counter = telemetry.metrics.get("omg_serve_responses_dropped_total")
    assert counter.value(reason="session_closed") == 1
    assert counter.value(reason="egress_stall") == 1
    assert counter.labelsets() == [{"reason": "egress_stall"},
                                   {"reason": "session_closed"}]


def test_latency_histogram_is_labelled_by_priority_class():
    """Latency labels are bounded by the two priority classes, not one
    label set per session."""
    telemetry = make_telemetry()
    service, loop, handles = traced_stack(
        telemetry, b"obs-latency", [Priority(index % 2) for index in range(8)])
    fingerprints = np.random.default_rng(6).integers(
        0, 256, size=(8, 8, 6), dtype=np.uint8)
    with hooks.installed(telemetry):
        for handle, fingerprint in zip(handles, fingerprints):
            service.submit(handle, fingerprint)
        loop.run_until_idle(force=True)
        service.teardown()
    histogram = telemetry.metrics.get("omg_serve_latency_ms")
    assert sum(histogram.count(**labels)
               for labels in histogram.labelsets()) == 8
    assert len(histogram.labelsets()) <= 2
    assert histogram.labelsets() == [{"priority": "batch"},
                                     {"priority": "interactive"}]


def test_provision_and_serve_emit_the_expected_spans_and_metrics():
    telemetry = make_telemetry()
    stats, _ = serve_traced(telemetry)

    names = {span.name for span in telemetry.tracer.finished_spans()}
    for expected in ("enclave.launch", "enclave.setup", "enclave.boot",
                     "enclave.attest", "serve.tick", "serve.batch",
                     "enclave.batch_invoke"):
        assert expected in names, f"missing span {expected!r} in {names}"

    snapshot = telemetry.metrics.snapshot()
    for metric in ("omg_serve_batch_size", "omg_serve_latency_ms",
                   "omg_serve_queue_interactive", "omg_serve_queue_batch",
                   "omg_worker_requests_total",
                   "omg_keystream_cache_hits_total",
                   "omg_keystream_blocks_total"):
        assert metric in snapshot, f"missing metric {metric!r}"
    assert stats.requests_completed == 4

    # Lifecycle phases are children of their launch span.
    launches = [s for s in telemetry.tracer.finished_spans()
                if s.name == "enclave.launch"]
    boots = [s for s in telemetry.tracer.finished_spans()
             if s.name == "enclave.boot"]
    assert {b.parent_id for b in boots} <= {l.span_id for l in launches}


def test_no_secret_bytes_in_any_export():
    """The paper's property S1/S2 applied to telemetry: grep every
    export format for the session keys and the plaintext model in raw,
    hex, and repr form — zero hits."""
    telemetry = make_telemetry()
    _, secrets = serve_traced(telemetry)
    # Plant the secrets directly into a span as a worst case: even an
    # instrumentation bug that passes key bytes must export redacted.
    with telemetry.tracer.span("adversarial") as span:
        span.set_attribute("planted", secrets[0])
        span.add_event("planted", model=secrets[2])
    telemetry.metrics.counter("omg_planted", "p").inc(tag=secrets[1])

    exports = [json.dumps(to_chrome_trace(telemetry.tracer)),
               to_prometheus(telemetry.metrics),
               render_summary(telemetry)]
    for text in exports:
        for secret in secrets:
            fragment = secret[:24]
            assert fragment.hex() not in text
            assert fragment.hex().upper() not in text
            assert repr(fragment)[2:-1] not in text
            assert fragment.decode("latin-1") not in text


def test_per_op_profiling_is_behind_its_flag():
    baseline = make_telemetry()
    serve_traced(baseline, requests=2)
    assert not any(s.name.startswith("op.")
                   for s in baseline.tracer.finished_spans())

    profiled = make_telemetry()
    profiled.op_profiling = True
    serve_traced(profiled, requests=2)
    op_spans = [s for s in profiled.tracer.finished_spans()
                if s.name.startswith("op.")]
    assert op_spans, "op_profiling=True must emit per-operator spans"
    # Virtual time is accounted at the enclave level, not per op: the
    # op spans carry host wall stamps plus static cost attributes.
    assert all(span.duration_wall_ns >= 0 for span in op_spans)
    assert sum(span.attributes.get("macs", 0) for span in op_spans) > 0


@pytest.mark.parametrize("layer", ["device", "serve", "fleet"])
def test_chaos_run_emits_a_fault_tagged_span(tiny_model, layer):
    from repro.eval import chaos

    run, span_name = {
        "device": (lambda seed: chaos.run_chaos_schedule(seed,
                                                         model=tiny_model),
                   "chaos.schedule"),
        "serve": (chaos.run_serve_chaos_schedule, "chaos.serve_schedule"),
        "fleet": (lambda seed: chaos.run_fleet_chaos_schedule(seed,
                                                              devices=120),
                  "chaos.fleet_schedule"),
    }[layer]
    telemetry = make_telemetry()
    with hooks.installed(telemetry):
        result = run(3)
    spans = [s for s in telemetry.tracer.finished_spans()
             if s.name == span_name]
    assert len(spans) == 1
    span = spans[0]
    assert span.attributes["seed"] == 3
    assert span.attributes["completed"] == result.completed
    assert span.attributes["faults"] == len(result.fault_lines)
    fault_events = [e for e in span.events if e["name"] == "fault"]
    assert [e["attributes"]["detail"] for e in fault_events] == \
        result.fault_lines
    assert result.fault_lines, "seed 3 must fire a fault on every layer"


def test_traced_run_is_deterministic_on_the_virtual_clock():
    from repro.eval.trace_run import run_traced_serving

    def skeleton():
        telemetry, _ = run_traced_serving(
            requests=4, max_batch=2, num_workers=1, num_sessions=1,
            model=build_tiny_int8_model())
        return [(s.name, s.trace_id, s.span_id, s.parent_id,
                 s.start_v_ns, s.end_v_ns)
                for s in telemetry.tracer.finished_spans()]

    first, second = skeleton(), skeleton()
    assert first == second
    assert first, "the traced run must record spans"


def test_stats_snapshot_matches_exported_metrics():
    telemetry = make_telemetry()
    stats, _ = serve_traced(telemetry)
    counter = telemetry.metrics.get("omg_serve_responses_total")
    total = sum(counter.value(**labels) for labels in counter.labelsets())
    assert total == stats.requests_completed
    histogram = telemetry.metrics.get("omg_serve_batch_size")
    batch_count = sum(histogram.count(**labels)
                      for labels in histogram.labelsets())
    assert batch_count == stats.batches
    assert not math.isnan(stats.p50_ms)


# --- pulled metrics: one count per event ---------------------------------

def scraped(registry, name):
    """An exported metric's total over its label sets (a histogram's
    observation count); 0 for a name never exported."""
    instrument = registry.get(name)
    if instrument is None:
        return 0
    if instrument.kind == "histogram":
        return sum(instrument.count(**labels)
                   for labels in instrument.labelsets())
    return sum(instrument.value(**labels)
               for labels in instrument.labelsets())


def test_collectors_are_pulled_on_every_read_and_sum():
    registry = MetricsRegistry()
    tally = {"things": 1}

    def owner():
        yield "counter", "omg_things_total", "things", {}, tally["things"]

    def other():
        yield "counter", "omg_things_total", "things", {}, 10

    registry.register(owner)
    registry.register(owner)          # a second registration is a no-op
    registry.register(other)
    assert registry.get("omg_things_total").value() == 11
    tally["things"] = 5
    assert "omg_things_total 15" in to_prometheus(registry)
    assert len(registry) == 1


def test_collected_values_and_labels_pass_the_same_gates():
    registry = MetricsRegistry()
    registry.register(lambda: iter([
        ("gauge", "omg_labelled", "l", {"tag": b"\x01" * 8}, 1)]))
    assert registry.get("omg_labelled").labelsets() == [
        {"tag": str(redact(b"\x01" * 8))}]

    leaky = MetricsRegistry()
    leaky.register(lambda: iter([
        ("counter", "omg_leak_total", "leak", {}, b"\x01" * 16)]))
    with pytest.raises(ObsError, match="numbers"):
        to_prometheus(leaky)

    histogram = MetricsRegistry()
    histogram.register(lambda: iter([
        ("histogram", "omg_pulled_ms", "h", {}, 1.0)]))
    with pytest.raises(ObsError, match="counter or gauge"):
        histogram.snapshot()


def test_closing_a_session_twice_counts_one_close():
    telemetry = make_telemetry()
    service, loop, (handle,) = traced_stack(
        telemetry, b"obs-close", [Priority.INTERACTIVE])
    with hooks.installed(telemetry):
        loop.tick()
        service.close_session(handle)
        service.close_session(handle)
        service.teardown()
    metrics = telemetry.metrics
    assert metrics.get("omg_serve_sessions_opened_total").value() == 1
    assert metrics.get("omg_serve_sessions_closed_total").value() == 1
    assert metrics.get("omg_serve_open_sessions").value() == 0


def test_queue_gauges_read_live_loop_state_after_drain():
    telemetry = make_telemetry()
    service, loop, (handle,) = traced_stack(
        telemetry, b"obs-gauges", [Priority.INTERACTIVE])
    fingerprints = np.random.default_rng(8).integers(
        0, 256, size=(3, 8, 6), dtype=np.uint8)
    with hooks.installed(telemetry):
        for fingerprint in fingerprints:
            service.submit(handle, fingerprint)
        loop.run_until_idle()
        service.teardown()
    metrics = telemetry.metrics
    assert service.stats().requests_completed == 3
    assert metrics.get("omg_serve_queue_interactive").value() == 0
    assert metrics.get("omg_serve_queue_batch").value() == 0
    assert metrics.get("omg_serve_mailbox_depth").value() == 0
    assert metrics.get("omg_serve_egress_occupancy").value() == 0
    assert loop.pending() == 0


# ServingStats fields with an exported twin; the rest (full_batches,
# deadline_flushes, the latency percentiles) have none.
_STATS_TWINS = {
    "requests_completed": ("omg_serve_responses_total",),
    "frames_dropped": ("omg_serve_frames_dropped_total",),
    "responses_dropped": ("omg_serve_responses_dropped_total",),
    "auth_failures": ("omg_serve_auth_failures_total",),
    "requests_shed": ("omg_serve_requests_shed_total",),
    "admission_shed": ("omg_serve_admission_rejections_total",),
    "batches": ("omg_serve_batch_size",),
    "watchdog_flushes": ("omg_serve_watchdog_flushes_total",),
    "workers_restarted": ("omg_serve_workers_restarted_total",),
    "batches_requeued": ("omg_serve_batches_requeued_total",),
    "open_sessions": ("omg_serve_open_sessions",),
    "queue_depth": ("omg_serve_queue_interactive", "omg_serve_queue_batch",
                    "omg_serve_mailbox_depth"),
}


@pytest.mark.parametrize("seed", [0, 2, 3, 16])
def test_serving_stats_equal_scraped_values_after_chaos(seed):
    """Seeds 0/2/3/16 between them fire auth failures, frame and
    response drops, sheds and a worker restart."""
    from repro.eval.chaos import run_serve_chaos_schedule

    telemetry = make_telemetry()
    with hooks.installed(telemetry):
        result = run_serve_chaos_schedule(seed)
    assert result.live and result.safe
    for field_name, names in _STATS_TWINS.items():
        exported = sum(scraped(telemetry.metrics, name) for name in names)
        assert exported == result.stats[field_name], field_name


def test_metric_catalogue_names_help_and_labels():
    """Every metric name is spelled once in the source, every exported
    name has its own help string, and every label comes from a bounded
    set — never a session id or anything else that grows with load."""
    import collections
    import pathlib
    import re

    import repro
    from repro.eval.chaos import run_fleet_chaos_schedule

    literals = collections.Counter()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        literals.update(re.findall(r"[\"'](omg_\w+)[\"']",
                                   path.read_text(encoding="utf-8")))
    assert not {name for name, count in literals.items() if count > 1}

    telemetry = make_telemetry()
    serve_traced(telemetry)
    with hooks.installed(telemetry):
        fleet = run_fleet_chaos_schedule(0)
    snapshot = telemetry.metrics.snapshot()
    assert "omg_fleet_shard_queue_depth" in snapshot
    assert set(snapshot) <= set(literals)
    helps = [data["help"] for data in snapshot.values()]
    assert all(helps)
    assert len(set(helps)) == len(helps)

    bounded = {
        "priority": {priority.name.lower() for priority in Priority},
        "reason": {"session_closed", "egress_stall"},
        "core": {str(core) for core in range(-1, 8)},
        "shard": set(fleet.journals),
    }
    for name, data in snapshot.items():
        for series in data["series"]:
            for label, value in series["labels"].items():
                assert value in bounded[label], (name, label, value)
