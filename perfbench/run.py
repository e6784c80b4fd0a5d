#!/usr/bin/env python3
"""Repository benchmark: one workload per run, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_steady --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer table instead (see ``BENCHMARK.json`` for both lists).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report
goes to ``.perfbench/<workload>-s<seed>-t<trace>.json`` and, for traced
runs, every span to ``.perfbench/<workload>-s<seed>.spans.npz``.

Each run is its own process: RSA key generation is memoised per
process, so set-up is only measured cold in a fresh one.  The key
material is fixed per workload; ``--seed`` only drives the traffic.
``setup_s`` and ``ops_per_s`` are in reference seconds: wall time
rescaled by a host-speed probe sampled while set-up and the phase ran
(``hostspeed.py``); the raw wall times are in the report file.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the workloads are single-threaded and the host small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Layer self times must add up to the traced phase's wall time within
# this share of it (the rest is span bookkeeping outside any span).
RECONCILE_TOLERANCE = 0.01

# Per-layer metrics: self time of a span name (seconds) or a span
# count, in the traced set-up and in the traced phase.
SETUP_SELF_TIMES = {
    "core.prepare_s": "core.prepare",
    "core.initialize_s": "core.initialize",
    "crypto.keypair_s": "crypto.keypair",
    "setup.crypto.drbg_s": "crypto.drbg",
    "setup.bench_self_s": "bench.setup",
}
SETUP_SPAN_COUNTS = {
    "crypto.keypair_calls": "crypto.keypair",
    "setup.crypto.drbg_calls": "crypto.drbg",
}
SELF_TIMES = {
    "crypto.drbg_s": "crypto.drbg",
    "crypto.hkdf_s": "crypto.hkdf",
    "crypto.frame_tags_s": "crypto.frame_tags",
    "serve.open_session_s": "serve.open_session",
    "serve.close_session_s": "serve.close_session",
    "serve.submit_s": "serve.submit",
    "serve.tick_self_s": "serve.tick",
    "serve.poll_s": "serve.poll",
    "serve.run_batch_s": "serve.run_batch",
    "tflm.invoke_s": "tflm.invoke",
    "audio.features_s": "audio.features",
    "sanctuary.record_audio_s": "sanctuary.record_audio",
    "fleet.route_s": "fleet.route",
    "fleet.enroll_wave_s": "fleet.enroll_wave",
    "fleet.complete_grants_s": "fleet.complete_grants",
    "fleet.journal_grant_s": "fleet.journal_grant",
    "fleet.journal_compact_s": "fleet.journal_compact",
    "fleet.journal_recover_s": "fleet.journal_recover",
    "fleet.audit_append_s": "fleet.audit_append",
    "bench.self_s": "bench.phase",
}
SPAN_COUNTS = {
    "crypto.drbg_calls": "crypto.drbg",
    "crypto.hkdf_calls": "crypto.hkdf",
    "serve.sessions_opened": "serve.open_session",
    "tflm.invokes": "tflm.invoke",
}


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _host() -> dict:
    return {"nproc": os.cpu_count(), "host": platform.node(),
            "machine": platform.machine(),
            "python": platform.python_version()}


def _keystream_counters() -> dict[int, tuple[int, int]]:
    """Hit/miss counters of every live KeystreamCache, by object id."""
    from repro.crypto.keycache import KeystreamCache

    return {id(obj): (obj.hits, obj.misses) for obj in gc.get_objects()
            if isinstance(obj, KeystreamCache)}


def _fresh(args, workloads):
    """A second, identically seeded instance, driven to just before its
    phase; its set-up reuses the process's cached keys."""
    workload = workloads[args.workload](args.seed, args.seconds)
    workload.host_probes = False
    workload.setup()
    workload.make_inputs()
    gc.collect()
    return workload


def run_traced(args, workloads, base, setup_tracer
               ) -> tuple[dict, list[str]]:
    """The per-layer table, after ``base`` ran its set-up under
    ``setup_tracer`` and its untraced phase.

    Two more instances at the same seed run the phase back to back, the
    first untraced and the second traced; both are built with warm keys,
    so the difference of their wall times is the tracing overhead.
    """
    from tracing import Tracer, install_layer_spans

    errors = []
    setup_self, setup_calls = setup_tracer.self_times(0)

    untraced = _fresh(args, workloads)
    untraced.drive()
    untraced_wall = untraced.wall_s
    untraced.teardown()
    del untraced

    twin = _fresh(args, workloads)
    before = _keystream_counters()
    tracer = Tracer()
    twin.tracer = tracer
    install_layer_spans(tracer)
    try:
        wall_start = time.perf_counter()
        with tracer.span("bench.phase"):
            twin.drive()
        traced_wall = time.perf_counter() - wall_start
    finally:
        tracer.uninstall()
    after = _keystream_counters()
    errors += [f"traced run: {e}" for e in twin.check()]

    self_time, calls = tracer.self_times(0)
    spans_sum = sum(self_time.values())
    metrics: dict[str, float] = {}
    for table, source in ((SETUP_SELF_TIMES, setup_self),
                          (SELF_TIMES, self_time),
                          (SETUP_SPAN_COUNTS, setup_calls),
                          (SPAN_COUNTS, calls)):
        for metric, span in table.items():
            metrics[metric] = float(source.get(span, 0))
    hits = sum(h - before.get(key, (0, 0))[0]
               for key, (h, _) in after.items())
    misses = sum(m - before.get(key, (0, 0))[1]
                 for key, (_, m) in after.items())
    metrics["crypto.keystream_hits"] = float(hits)
    metrics["crypto.keystream_misses"] = float(misses)
    metrics["crypto.keystream_hit_ratio"] = (hits / (hits + misses)
                                             if hits + misses else 0.0)
    for metric in ("crypto.frame_tags_frames", "tflm.macs", "fleet.legs"):
        metrics[metric] = tracer.counts[metric]
    for metric, value in twin.layer_counts(tracer.counts).items():
        metrics[metric] = float(value)

    reconcile_error = abs(spans_sum - traced_wall) / traced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.reconcile_error"] = reconcile_error
    metrics["trace.spans"] = float(len(tracer.start))
    metrics["trace.overhead_est_s"] = len(tracer.start) * tracer.span_cost_s()
    if reconcile_error > RECONCILE_TOLERANCE:
        errors.append(f"layer self times sum to {spans_sum:.4f} s, traced "
                      f"wall {traced_wall:.4f} s (tolerance "
                      f"{RECONCILE_TOLERANCE:.0%})")

    # Two runs at one seed must agree exactly on everything simulated.
    for key in ("sim_p50_ms", "sim_p99_ms", "sim_ops_per_s",
                "realtime_share", "served_share"):
        if base.end_to_end()[key] != twin.end_to_end()[key]:
            errors.append(f"repeat at one seed changed {key}")
    if base.deterministic_counts() != twin.deterministic_counts():
        errors.append("repeat at one seed changed public counters: "
                      f"{base.deterministic_counts()} vs "
                      f"{twin.deterministic_counts()}")
    metrics["repeat.identical"] = 0.0 if any(
        e.startswith("repeat") for e in errors) else 1.0

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR,
                              f"{args.workload}-s{args.seed}.spans.npz"))
    twin.teardown()
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    benchmark = _load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    from hostspeed import HostMeter
    from workloads import WORKLOADS

    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    # Host speed is sampled through set-up too, except while tracing.
    setup_meter = HostMeter(None) if args.trace else HostMeter()
    started_s = time.perf_counter() - PROCESS_START
    if args.trace:
        from tracing import Tracer, install_layer_spans

        setup_tracer = Tracer()
        install_layer_spans(setup_tracer)
        try:
            with setup_meter, setup_tracer.span("bench.setup"):
                workload.setup()
        finally:
            setup_tracer.uninstall()
    else:
        with setup_meter:
            workload.setup()
    setup_wall_s = started_s + setup_meter.wall_s
    workload.make_inputs()
    gc.collect()
    workload.drive()
    errors = workload.check()

    e2e = workload.end_to_end()
    # Interpreter start and imports ran before the meter: scale them by
    # the set-up's median host speed.
    e2e["setup_s"] = (started_s / setup_meter.slowdown
                      + setup_meter.reference_s)
    e2e["peak_rss_mb"] = _peak_rss_mb()
    completed = len(workload.latencies_ms)
    if args.trace:
        metrics, trace_errors = run_traced(args, WORKLOADS, workload,
                                           setup_tracer)
        errors += trace_errors
    else:
        metrics = e2e
    workload.teardown()
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": _host(), "errors": errors,
        "attempted": workload.attempted, "completed": completed,
        "setup_wall_s": setup_wall_s,
        "setup_slowdown": setup_meter.slowdown,
        "wall_s": workload.wall_s, "reference_s": workload.meter.reference_s,
        "slowdown": workload.meter.slowdown,
        "ops_per_wall_s": completed / workload.wall_s,
        "probes_s": workload.meter.probes,
        "slices_s": workload.meter.slices,
        "sim_s": workload.sim_s, "end_to_end": e2e,
        "deterministic_counts": workload.deterministic_counts(),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": int(workload.attempted),
        "failed": int(workload.attempted - completed),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
