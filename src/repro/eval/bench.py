"""Wall-clock benchmark harness for the vectorized hot paths.

Unlike :mod:`repro.eval.table1`, which reports the *simulated* timings
from the calibrated virtual clock, this module times actual host
wall-clock for the stages the vectorization work targeted — crypto
(model provisioning round-trip), inference, and the DSP front end —
and compares each against its retained scalar reference implementation
(``GCM(reference=True)``, ``Interpreter(reference_kernels=True)``,
``StreamingFeatureExtractor(reference=True)``).  Both variants are run
in the same process on the same inputs, so the recorded speedups are
self-contained and reproducible from the JSON alone.

Host wall-clock is deliberately decoupled from the simulated clock:
nothing here touches cycle accounting, and the Table I numbers are
identical whichever kernel set runs.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

__all__ = ["run_benchmarks", "write_report", "DEFAULT_REPORT_PATH"]

DEFAULT_REPORT_PATH = "BENCH_wallclock.json"

# Acceptance floors for the vectorization work (checked by
# benchmarks/test_wallclock.py).
CRYPTO_MIN_SPEEDUP = 5.0
INFERENCE_MIN_SPEEDUP = 2.0

# Plan-time kernel fusion must beat the same fast kernels run one op
# per dispatch (Interpreter(fuse=False)) by at least this factor.  The
# honest win is modest — fusion removes dispatches and the standalone
# activation pass, not GEMM work — so the floor asserts "measurably
# pays for itself", not a vectorization-sized multiple.
INFERENCE_FUSED_MIN_SPEEDUP = 1.05

# Sealing a dispatch batch of response frames through the pipelined
# path (resident keystream chunks + one batched GHASH tag sweep) must
# beat per-frame GCM sealing by at least this factor.
SEAL_PIPELINE_MIN_SPEEDUP = 2.0

# Multi-session serving must beat the sequential one-enclave path by at
# least this factor in wall-clock requests/s at the largest batch size.
# Raised from 3.0 when the async core landed: the event-loop drive plus
# the batched client mux (one GHASH sweep per wave on both the submit
# and the poll side) roughly doubled the old synchronous-dispatch
# number.
SERVING_MIN_SPEEDUP = 6.0

# Virtual-clock p99 latency SLO for the 1000-session point of the
# serving_concurrency sweep.  Sim latency is host-independent (every
# input to the event loop is deterministic), so this is a hard bound,
# not a noise-padded one: measured ~2.2 s with a 1000-request backlog
# draining through two workers at batch 32; the margin covers config
# evolution, not hosts.
SERVING_CONCURRENCY_P99_SLO_MS = 4000.0

# Wall-clock per-request scaling efficiency across the concurrency
# sweep (per-request seconds at the smallest session count divided by
# per-request seconds at the largest).  1.0 is perfectly flat; the
# floor catches superlinear-cost regressions (an O(n) scan per tick
# would crater this long before it trips a functional test).
SERVING_CONCURRENCY_MIN_EFFICIENCY = 0.5

# Fault-injection hooks must be free when no plan is installed: the
# no-faults path may not regress more than this factor against the
# committed report's numbers (same host only — see test_wallclock.py).
HOOK_OVERHEAD_MAX = 1.02

# The static-analysis suite gates CI before the tests run, so its own
# wall-clock over src/repro must stay bounded as rules grow.
ANALYSIS_MAX_SECONDS = 10.0

# Telemetry must be free when no bundle is installed: serving throughput
# with the obs hooks present but disabled may not regress more than this
# factor against the committed report (same host only).
TELEMETRY_OVERHEAD_MAX = 1.03

# Fleet control plane: wall-clock license issuance throughput over the
# 10^5-device enrollment storm (grants landed / storm seconds).  The
# pooled path issues ~4.4k licenses/s on the reference host; the floor
# leaves ~5x host margin while still catching a fall back to scalar
# per-device hashing (which lands near 100/s).
FLEET_MIN_LICENSES_PER_SEC = 800.0

# Virtual-clock p99 enrollment latency under the seeded storm (three
# lossy drop windows, one shard crash, one torn journal append).  Sim
# latency is host-independent — arrivals, queue positions, backoff, and
# restart delays are all deterministic — so this is a hard bound:
# measured ~100 ms (wave cadence plus queue drain; the 100 ms-base
# retry backoff only reaches the tail beyond p99 at this fault rate);
# the margin covers config evolution, not hosts.
FLEET_P99_SLO_MS = 500.0

# Wall-clock per-device scaling efficiency of the storm driver: storm
# seconds per device at the baseline fleet size divided by the same at
# the full 10^5 fleet.  >= 1.0 means the batched passes amortize; the
# floor catches superlinear per-wave costs (an O(fleet) scan per wave,
# per-device scalar crypto) long before a functional test would.
FLEET_SCALING_MIN_EFFICIENCY = 0.5


def _timed_runs(fn, repeats: int) -> list[float]:
    """Wall-clock of each of ``repeats`` runs.

    The only sanctioned wall-clock read in the tree: this harness
    *measures* host time, everything simulated runs on the virtual
    clock (hence the determinism waivers).
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()  # analysis: allow(determinism)
        fn()
        times.append(time.perf_counter() - t0)  # analysis: allow(determinism)
    return times


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust)."""
    return min(_timed_runs(fn, repeats))


def _measure(fn, repeats: int) -> tuple[float, float]:
    """(min, population-std) of ``repeats`` wall-clock runs.

    The std quantifies measurement noise so readers of the JSON can
    tell a real regression from jitter without rerunning.
    """
    times = _timed_runs(fn, repeats)
    return min(times), float(np.std(times))


def _stage(baseline_s: float, current_s: float,
           baseline_std_s: float = 0.0, current_std_s: float = 0.0,
           **extra) -> dict:
    return {
        "baseline_s": baseline_s,
        "current_s": current_s,
        "baseline_std_s": baseline_std_s,
        "current_std_s": current_std_s,
        "speedup": baseline_s / current_s if current_s > 0 else float("inf"),
        **extra,
    }


def bench_crypto(model_bytes: bytes, repeats: int = 3) -> dict:
    """Model provisioning round-trip: GCM encrypt + authenticated decrypt.

    The baseline forces the scalar per-block GCM via
    :func:`repro.crypto.modes.reference_mode`; the current path uses the
    batched T-table AES + table-driven GHASH.  Same key, nonce, AAD and
    plaintext both times, and both round-trips are verified to recover
    the plaintext.
    """
    from repro.core.provisioning import decrypt_model, encrypt_model
    from repro.crypto.modes import reference_mode
    from repro.crypto.rng import HmacDrbg

    key = bytes(range(32))
    key_nonce = b"\xa5" * 16

    def roundtrip():
        rng = HmacDrbg(seed=b"bench-crypto")
        enc = encrypt_model(model_bytes, key, "sa#1", "tiny_conv", 1,
                            key_nonce, rng)
        assert decrypt_model(enc, key) == model_bytes

    with reference_mode():
        baseline, baseline_std = _measure(roundtrip, repeats)
    current, current_std = _measure(roundtrip, repeats)
    return _stage(baseline, current, baseline_std, current_std,
                  bytes=len(model_bytes), repeats=repeats)


def bench_inference(model, invokes: int = 100, repeats: int = 3) -> dict:
    """``invokes`` keyword-spotting invokes, fast kernels vs reference.

    Outputs are asserted bit-identical between the two interpreters
    before timing, so the speedup never comes from cut corners.
    """
    from repro.tflm.interpreter import Interpreter

    rng = np.random.default_rng(1234)
    spec = model.tensors[model.inputs[0]]
    inputs = [rng.integers(-128, 128, size=spec.shape, dtype=np.int8)
              for _ in range(8)]

    fast = Interpreter(model)
    ref = Interpreter(model, reference_kernels=True)
    for x in inputs:
        fast.set_input(model.inputs[0], x)
        fast.invoke()
        ref.set_input(model.inputs[0], x)
        ref.invoke()
        assert np.array_equal(fast.get_output(model.outputs[0]),
                              ref.get_output(model.outputs[0]))
        assert fast.last_stats.cycles == ref.last_stats.cycles

    def run(interp):
        def body():
            for i in range(invokes):
                interp.set_input(model.inputs[0], inputs[i % len(inputs)])
                interp.invoke()
        return body

    baseline, baseline_std = _measure(run(ref), repeats)
    current, current_std = _measure(run(fast), repeats)
    return _stage(baseline, current, baseline_std, current_std,
                  invokes=invokes, repeats=repeats)


def bench_inference_fused(invokes: int = 100, repeats: int = 5,
                          architecture: str = "low_latency_conv") -> dict:
    """``invokes`` invokes, fused plan vs the same fast kernels unfused.

    Both interpreters run the vectorized kernels; the baseline disables
    plan-time fusion (``fuse=False``), so the speedup isolates what
    operator chaining buys — fewer dispatches, no materialized
    intermediates, requantize folded through activations.  Outputs and
    simulated cycles are asserted identical first: fusion is a pure
    host-time win.

    The model is a zoo graph converted with ``fuse_activations=False``,
    so activations travel as standalone ``relu`` ops — the shape the
    plan-time fusion pass exists to absorb (the pretrained model folds
    them at conversion, leaving fusion little to show).
    ``low_latency_conv`` has the zoo's highest dispatch-and-activation
    share per MAC, where fusion's win is largest and steadiest.  The
    two variants are timed in alternation so slow host drift (thermal,
    scheduling) cancels out of the ratio instead of landing on one
    side.
    """
    from repro.tflm.interpreter import Interpreter
    from repro.train.zoo import build_architecture, convert_network_int8

    rng = np.random.default_rng(4321)
    network = build_architecture(architecture)
    calibration = rng.random((8, 49, 43, 1)) * 0.3
    model = convert_network_int8(network, calibration,
                                 fuse_activations=False, name=architecture)
    spec = model.tensors[model.inputs[0]]
    inputs = [rng.integers(-128, 128, size=spec.shape, dtype=np.int8)
              for _ in range(8)]

    fused = Interpreter(model)
    unfused = Interpreter(model, fuse=False)
    for x in inputs:
        fused.set_input(model.inputs[0], x)
        fused.invoke()
        unfused.set_input(model.inputs[0], x)
        unfused.invoke()
        assert np.array_equal(fused.get_output(model.outputs[0]),
                              unfused.get_output(model.outputs[0]))
        assert fused.last_stats.cycles == unfused.last_stats.cycles

    def run(interp):
        def body():
            for i in range(invokes):
                interp.set_input(model.inputs[0], inputs[i % len(inputs)])
                interp.invoke()
        return body

    baseline_times: list[float] = []
    current_times: list[float] = []
    for _ in range(repeats):
        baseline_times += _timed_runs(run(unfused), 1)
        current_times += _timed_runs(run(fused), 1)
    return _stage(min(baseline_times), min(current_times),
                  float(np.std(baseline_times)),
                  float(np.std(current_times)),
                  invokes=invokes, repeats=repeats,
                  architecture=architecture)


def bench_seal_pipeline(frames: int = 32, payload_bytes: int = 2107,
                        repeats: int = 5) -> dict:
    """Sealing one dispatch batch of frames: pipelined vs per-frame GCM.

    Baseline is the unpipelined seal path — each frame independently
    AES-GCM encrypted (fast table-driven GCM, shared key schedule), the
    way a seal-per-response egress loop would run.  Current is the
    dispatcher's pipelined path: keystream chunks already resident in
    the :class:`~repro.crypto.keycache.KeystreamCache` (prefetch
    overlaps the batch's inference, so chunk generation is off this
    critical path), one vectorized XOR across the batch, and one
    :func:`~repro.crypto.modes.frame_tags_batched` GHASH sweep for all
    tags.  Both paths are verified to authenticate and decrypt back to
    the plaintext before timing.
    """
    from repro.crypto.keycache import KeystreamCache
    from repro.crypto.modes import GCM, FrameTagKey, frame_tags_batched
    from repro.serve.frames import frame_aad, frame_j0

    rng = np.random.default_rng(2718)
    payloads = rng.integers(0, 256, size=(frames, payload_bytes),
                            dtype=np.uint8)
    seal_key = bytes(range(16))
    tag_key = bytes(range(16, 32))
    session = 1
    tagger = FrameTagKey(tag_key)
    taggers = [tagger] * frames
    j0s = [frame_j0(seq) for seq in range(frames)]
    aads = [frame_aad(session, seq) for seq in range(frames)]

    chunk_bytes = 65536
    total = frames * payload_bytes
    cache = KeystreamCache(capacity=64, chunk_bytes=chunk_bytes)
    cache.prefetch(session, seal_key, 0,
                   depth=(total + chunk_bytes - 1) // chunk_bytes)

    gcm = GCM(seal_key)

    def unpipelined():
        for seq in range(frames):
            gcm.encrypt(seq.to_bytes(12, "big"),
                        payloads[seq].tobytes(), aads[seq])

    def pipelined():
        keystream = np.empty((frames, payload_bytes), dtype=np.uint8)
        for seq in range(frames):
            keystream[seq] = cache.take(session, seal_key,
                                        seq * payload_bytes, payload_bytes)
        ciphertexts = payloads ^ keystream
        return frame_tags_batched(
            taggers, j0s, aads,
            [row.tobytes() for row in ciphertexts])

    # Correctness before timing: the pipelined frames open and verify.
    tags = pipelined()
    for seq in range(frames):
        sealed = (payloads[seq]
                  ^ cache.take(session, seal_key,
                               seq * payload_bytes, payload_bytes))
        assert tagger.verify(j0s[seq], aads[seq], sealed.tobytes(),
                             tags[seq])
    ct0, tag0 = gcm.encrypt(b"\x00" * 12, payloads[0].tobytes(), aads[0])
    assert gcm.decrypt(b"\x00" * 12, ct0, tag0,
                       aads[0]) == payloads[0].tobytes()

    baseline, baseline_std = _measure(unpipelined, repeats)
    current, current_std = _measure(pipelined, repeats)
    return _stage(baseline, current, baseline_std, current_std,
                  frames=frames, payload_bytes=payload_bytes,
                  repeats=repeats,
                  keystream_hits=cache.hits, keystream_misses=cache.misses)


def bench_dsp(stream_seconds: float = 10.0, repeats: int = 3) -> dict:
    """Streaming feature extraction over ``stream_seconds`` of audio,
    fed in 100 ms chunks: batched FFT path vs per-frame reference."""
    from repro.audio.features import FeatureConfig
    from repro.audio.streaming import StreamingFeatureExtractor

    cfg = FeatureConfig()
    rng = np.random.default_rng(99)
    total = int(stream_seconds * cfg.sample_rate)
    chunk = cfg.sample_rate // 10
    audio = rng.integers(-3000, 3000, size=total).astype(np.int16)
    chunks = [audio[i:i + chunk] for i in range(0, total, chunk)]

    fast = StreamingFeatureExtractor(cfg)
    ref = StreamingFeatureExtractor(cfg, reference=True)
    for c in chunks[:10]:
        fast.feed(c)
        ref.feed(c)
        assert np.array_equal(fast.fingerprint(), ref.fingerprint())

    def run(reference):
        def body():
            s = StreamingFeatureExtractor(cfg, reference=reference)
            for c in chunks:
                s.feed(c)
        return body

    baseline, baseline_std = _measure(run(True), repeats)
    current, current_std = _measure(run(False), repeats)
    return _stage(baseline, current, baseline_std, current_std,
                  stream_seconds=stream_seconds, repeats=repeats)


def bench_provisioning(model, repeats: int = 3) -> dict:
    """Serialize + encrypt + decrypt + deserialize, end to end, with
    fast vs reference crypto (serialization itself is common to both)."""
    from repro.core.provisioning import decrypt_model, encrypt_model
    from repro.crypto.modes import reference_mode
    from repro.crypto.rng import HmacDrbg
    from repro.tflm.serialize import deserialize_model, serialize_model

    key = b"\x42" * 32

    def roundtrip():
        blob = serialize_model(model)
        rng = HmacDrbg(seed=b"bench-prov")
        enc = encrypt_model(blob, key, "sa#1", "tiny_conv", 1,
                            b"\x07" * 16, rng)
        deserialize_model(decrypt_model(enc, key))

    with reference_mode():
        baseline, baseline_std = _measure(roundtrip, repeats)
    current, current_std = _measure(roundtrip, repeats)
    return _stage(baseline, current, baseline_std, current_std,
                  repeats=repeats)


def bench_fault_hooks(repeats: int = 5) -> dict:
    """Cost of the fault-injection hook sites, disabled vs armed.

    The workload hammers every instrumented site — bus reads/writes,
    scrubs, DRBG generates, channel seal/open — first with no plan
    installed (``baseline_s``: the production no-faults path, one
    attribute load + ``None`` check per site) and then with an armed
    empty :class:`~repro.faults.FaultPlan` (``current_s``: full dispatch
    with zero matching rules).  The disabled path is additionally
    regression-checked against the committed report by
    ``benchmarks/test_wallclock.py``.
    """
    from repro import faults
    from repro.core.channels import ChannelEndpoint
    from repro.crypto.rng import HmacDrbg
    from repro.hw.bus import SystemBus
    from repro.hw.memory import PhysicalMemory, Tzasc, World

    def workload():
        bus = SystemBus(PhysicalMemory(1 << 20), Tzasc())
        payload = bytes(64)
        for i in range(400):
            address = (i * 64) % (1 << 19)
            bus.write(address, payload, World.SECURE, core_id=None)
            bus.read(address, 64, World.SECURE, None)
        for i in range(50):
            bus.memory.scrub((i * 4096) % (1 << 19), 4096)
        drbg = HmacDrbg(b"bench-hooks")
        for _ in range(200):
            drbg.generate(16)
        a = ChannelEndpoint(send_key=b"k" * 16, recv_key=b"r" * 16)
        b = ChannelEndpoint(send_key=b"r" * 16, recv_key=b"k" * 16)
        for i in range(50):
            b.open_at(i, a.seal_at(i, payload))

    disabled, disabled_std = _measure(workload, repeats)
    with faults.installed(faults.FaultPlan(0, [])):
        armed, armed_std = _measure(workload, repeats)
    return _stage(disabled, armed, disabled_std, armed_std, repeats=repeats,
                  armed_overhead=armed / disabled - 1.0 if disabled else 0.0)


def bench_static_analysis(repeats: int = 2) -> dict:
    """Full invariant-check suite over the installed ``repro`` package.

    ``baseline_s`` is the budget (:data:`ANALYSIS_MAX_SECONDS`), so the
    usual ``speedup >= 1.0`` floor reads "the checker finished inside
    its budget" — the guard that keeps CI latency honest as rules grow.
    """
    import tempfile

    import repro
    from repro.analysis import run_analysis
    from repro.analysis.cache import AnalysisCache

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "analysis-cache.json")

        def suite():
            run_analysis([package_dir], cache=AnalysisCache(cache_path))

        # First run parses and analyzes everything and fills the
        # content-hash cache; the gated measurement is the cached
        # replay — the path CI actually takes on an unchanged tree.
        cold = _timed_runs(suite, 1)[0]
        current, current_std = _measure(suite, repeats)
    return _stage(ANALYSIS_MAX_SECONDS, current,
                  current_std_s=current_std, repeats=repeats,
                  cold_s=cold)


def bench_serving(requests: int = 64, batch_sizes: tuple = (1, 4, 8, 16, 32),
                  repeats: int = 5, num_workers: int = 2,
                  num_sessions: int = 3, seed: int = 7) -> dict:
    """Multi-session serving vs the sequential one-enclave path.

    Baseline: ``requests`` queries through :class:`SequentialBaseline`
    (per-request secure-channel records, mailbox copies, suspend
    between queries).  Current: the same queries through a
    :class:`ServingService` driven by the async :class:`ServingLoop` —
    wave submits through the batched client mux (one vectorized XOR +
    one GHASH sweep per wave on both the submit and the poll side),
    per-session keystream sealing over zero-copy rings, batched
    invokes via per-worker mailboxes — at each batch size.
    ``baseline_s``/``current_s`` are wall-clock for the whole request
    set; ``current_s`` is the largest batch size, which the
    :data:`SERVING_MIN_SPEEDUP` floor gates.  Virtual-clock requests/s
    and p50/p95/p99 latency ride along per batch size.

    Adaptive batch sizing is *off* here — the sweep's independent
    variable is the batch size, so the loop must not retarget it
    mid-run.  (The concurrency stage runs the adaptive path.)

    Setup (enclave launch, attestation, provisioning) happens once
    outside the timed region for both paths: this stage measures
    steady-state serving, where the paper's per-query protocol overhead
    is exactly what batching and key caching amortize away.
    """
    from repro.core.parties import Vendor
    from repro.eval.pretrained import standard_model
    from repro.serve import (SequentialBaseline, ServeConfig, ServingLoop,
                             ServingService)
    from repro.trustzone.worlds import make_platform

    model, _ = standard_model()
    rng = np.random.default_rng(seed)
    fingerprints = rng.integers(0, 256, size=(requests, 49, 43),
                                dtype=np.uint8)

    platform_sim = make_platform(seed=b"bench-serving", key_bits=768)
    vendor = Vendor("ml-vendor", model, key_bits=768)
    baseline_path = SequentialBaseline(platform_sim, vendor)
    clock = platform_sim.soc.clock

    def run_baseline():
        for fingerprint in fingerprints:
            baseline_path.request(fingerprint)

    sim_before = clock.now_ms
    baseline_s, baseline_std = _measure(run_baseline, repeats)
    baseline_sim_ms = (clock.now_ms - sim_before) / (repeats * requests)

    batches = {}
    current_s = current_std = None
    # Ascending sweep so ``current_s`` (what the floor gates) is always
    # the largest batch size, whatever order the caller passed.
    for batch in sorted(set(batch_sizes)):
        # A fresh platform per batch size keeps core allocation and the
        # virtual clock independent across configurations.
        plat = make_platform(seed=b"bench-serving-%d" % batch, key_bits=768)
        svc_vendor = Vendor("ml-vendor", model, key_bits=768)
        service = ServingService(
            plat, svc_vendor,
            ServeConfig(max_batch=batch, num_workers=num_workers))
        loop = ServingLoop(service, adaptive=False)
        handles = [service.open_session() for _ in range(num_sessions)]

        def run_serving():
            index = 0
            while index < requests:
                wave = min(batch, requests - index)
                service.submit_many(
                    [(handles[(index + k) % num_sessions],
                      fingerprints[index + k]) for k in range(wave)])
                index += wave
                loop.tick()
            loop.run_until_idle(force=True)

        sim_start = plat.soc.clock.now_ms
        wall_s, wall_std = _measure(run_serving, repeats)
        sim_ms = (plat.soc.clock.now_ms - sim_start) / (repeats * requests)
        percentiles = service.latency_percentiles()
        batches[str(batch)] = {
            "wall_s": wall_s,
            "wall_std_s": wall_std,
            "wall_rps": requests / wall_s,
            "sim_ms_per_request": sim_ms,
            "sim_rps": 1000.0 / sim_ms if sim_ms > 0 else float("inf"),
            "p50_ms": percentiles["p50_ms"],
            "p95_ms": percentiles["p95_ms"],
            "p99_ms": percentiles["p99_ms"],
        }
        current_s, current_std = wall_s, wall_std
        service.teardown()
    baseline_path.teardown()

    return _stage(
        baseline_s, current_s, baseline_std, current_std,
        requests=requests, repeats=repeats, num_workers=num_workers,
        num_sessions=num_sessions,
        baseline_wall_rps=requests / baseline_s,
        baseline_sim_ms_per_request=baseline_sim_ms,
        baseline_sim_rps=(1000.0 / baseline_sim_ms
                          if baseline_sim_ms > 0 else float("inf")),
        batches=batches,
    )


def bench_serving_concurrency(session_counts: tuple = (100, 500, 1000),
                              requests_per_session: int = 1,
                              repeats: int = 3, num_workers: int = 2,
                              max_batch: int = 32,
                              priority_mix: float = 0.5,
                              seed: int = 11) -> dict:
    """Serving under concurrency: the async core's 1000-session sweep.

    For each session count, open that many sessions (``priority_mix``
    of them interactive, the rest batch class), then pump one request
    per session through the :class:`ServingLoop` in ring-sized waves —
    batched client-mux submits, shed-and-retry on backpressure, one
    reactor tick per wave — and drain to idle.  Per sweep point the
    row records wall-clock throughput plus the virtual-clock latency
    percentiles; the 1000-session p99 is gated against
    :data:`SERVING_CONCURRENCY_P99_SLO_MS` (sim time is deterministic,
    so the SLO is host-independent).

    The stage's ``speedup`` is the wall-clock *scaling efficiency*:
    per-request seconds at the smallest session count over per-request
    seconds at the largest.  ~1.0 means adding sessions costs nothing
    per request; :data:`SERVING_CONCURRENCY_MIN_EFFICIENCY` catches
    superlinear per-tick costs (exactly what the age-heap scheduler
    and the O(1) admission gate exist to prevent).
    """
    from collections import deque

    from repro.core.parties import Vendor
    from repro.eval.pretrained import standard_model
    from repro.serve import (Priority, ServeConfig, ServingLoop,
                             ServingService, Shed)
    from repro.trustzone.worlds import make_platform

    if not 0.0 <= priority_mix <= 1.0:
        raise ValueError("priority_mix must be within [0, 1]")
    model, _ = standard_model()
    rows = {}
    per_request: dict[int, tuple[float, float]] = {}
    for count in sorted(set(session_counts)):
        rng = np.random.default_rng(seed)
        total = count * requests_per_session
        fingerprints = rng.integers(0, 256, size=(total, 49, 43),
                                    dtype=np.uint8)
        plat = make_platform(seed=b"bench-concurrency-%d" % count,
                             key_bits=768)
        vendor = Vendor("ml-vendor", model, key_bits=768)
        # Small keystream chunks keep the per-session cache working set
        # proportional to actual traffic (one request per session), not
        # to the 64 KiB default a 3-session service amortizes happily.
        service = ServingService(plat, vendor, ServeConfig(
            max_batch=max_batch, ring_slots=256, session_capacity=count,
            keystream_chunk_bytes=4096, num_workers=num_workers,
            strict=False))
        loop = ServingLoop(service)
        interactive = int(count * priority_mix)
        handles = [service.open_session(
            priority=(Priority.INTERACTIVE if index < interactive
                      else Priority.BATCH))
            for index in range(count)]

        def run_sweep():
            pending = deque(
                (handles[index % count], fingerprints[index])
                for index in range(total))
            while pending:
                wave = [pending.popleft()
                        for _ in range(min(128, len(pending)))]
                verdicts = service.submit_many(wave)
                for pair, verdict in zip(wave, verdicts):
                    if isinstance(verdict, Shed):
                        pending.append(pair)
                loop.tick()
                service.clock.advance_ms(loop.tick_ms)
            loop.run_until_idle(force=True)

        wall_s, wall_std = _measure(run_sweep, repeats)
        percentiles = service.latency_percentiles()
        stats = service.stats()
        rows[str(count)] = {
            "sessions": count,
            "requests": total,
            "wall_s": wall_s,
            "wall_std_s": wall_std,
            "wall_rps": total / wall_s,
            "p50_ms": percentiles["p50_ms"],
            "p95_ms": percentiles["p95_ms"],
            "p99_ms": percentiles["p99_ms"],
            "requests_shed": stats.requests_shed,
            "admission_shed": stats.admission_shed,
            "batches": stats.batches,
            "full_batches": stats.full_batches,
            "adaptive_grows": loop.batcher.grows,
            "adaptive_shrinks": loop.batcher.shrinks,
        }
        per_request[count] = (wall_s / total, wall_std / total)
        service.teardown()

    smallest = min(per_request)
    largest = max(per_request)
    return _stage(
        per_request[smallest][0], per_request[largest][0],
        per_request[smallest][1], per_request[largest][1],
        repeats=repeats, num_workers=num_workers, max_batch=max_batch,
        priority_mix=priority_mix,
        requests_per_session=requests_per_session,
        p99_slo_ms=SERVING_CONCURRENCY_P99_SLO_MS,
        p99_at_largest_ms=rows[str(largest)]["p99_ms"],
        slo_met=(rows[str(largest)]["p99_ms"]
                 <= SERVING_CONCURRENCY_P99_SLO_MS),
        sessions=rows,
    )


def bench_telemetry(requests: int = 24, repeats: int = 5,
                    num_workers: int = 2, num_sessions: int = 3,
                    batch: int = 8, seed: int = 7) -> dict:
    """Cost of the observability hook sites, disabled vs installed.

    The workload is one steady-state serving pass (the hottest
    instrumented path: dispatch, batch invoke, ring transfers, keystream
    cache).  ``baseline_s`` runs it with no telemetry bundle installed —
    the production path, one module-attribute load + ``None`` check per
    site — and ``current_s`` repeats it under an installed
    :class:`~repro.obs.Telemetry` (spans recorded, metrics updated).
    The disabled path is regression-checked against the committed
    report by ``benchmarks/test_wallclock.py`` under
    :data:`TELEMETRY_OVERHEAD_MAX`.
    """
    from repro.core.parties import Vendor
    from repro.eval.pretrained import standard_model
    from repro.obs import Telemetry, hooks as obs_hooks
    from repro.serve import ServeConfig, ServingLoop, ServingService
    from repro.trustzone.worlds import make_platform

    model, _ = standard_model()
    rng = np.random.default_rng(seed)
    fingerprints = rng.integers(0, 256, size=(requests, 49, 43),
                                dtype=np.uint8)

    def build(tag: bytes):
        plat = make_platform(seed=b"bench-telemetry-" + tag, key_bits=768)
        vendor = Vendor("ml-vendor", model, key_bits=768)
        service = ServingService(
            plat, vendor,
            ServeConfig(max_batch=batch, num_workers=num_workers))
        loop = ServingLoop(service, adaptive=False)
        handles = [service.open_session() for _ in range(num_sessions)]
        return plat, service, loop, handles

    def driver(service, loop, handles):
        # The async-loop drive: covers every instrumented serving site,
        # including the loop's own tick spans and queue gauges.
        def body():
            index = 0
            while index < requests:
                wave = min(batch, requests - index)
                service.submit_many(
                    [(handles[(index + k) % num_sessions],
                      fingerprints[index + k]) for k in range(wave)])
                index += wave
                loop.tick()
            loop.run_until_idle(force=True)
        return body

    _, service, loop, handles = build(b"off")
    disabled, disabled_std = _measure(driver(service, loop, handles), repeats)
    service.teardown()

    plat, service, loop, handles = build(b"on")
    telemetry = Telemetry(plat.soc.clock)
    with obs_hooks.installed(telemetry):
        enabled, enabled_std = _measure(driver(service, loop, handles),
                                        repeats)
    spans = telemetry.tracer.buffer.appended
    service.teardown()

    return _stage(
        disabled, enabled, disabled_std, enabled_std,
        requests=requests, repeats=repeats, batch=batch,
        enabled_overhead=enabled / disabled - 1.0 if disabled else 0.0,
        spans_recorded=spans,
        metrics_registered=len(telemetry.metrics),
    )


def bench_fleet_provisioning(devices: int = 100_000, shards: int = 8,
                             cohorts_per_tenant: int = 5,
                             baseline_devices: int = 10_000,
                             key_bits: int = 768,
                             fault_seed: int = 41) -> dict:
    """Fleet control plane: provision 10^5 pooled devices across shards.

    Fabricates a two-tenant fleet of pooled-attestation cohorts, routes
    every device's two enrollment legs (attest, grant) through the
    consistent-hash ring with :meth:`FleetDirector.run_storm`, and
    reports wall-clock licenses/sec next to the virtual-clock latency
    percentiles.  The storm runs under a fixed seeded fault schedule —
    three lossy drop windows, one mid-storm shard crash, one torn
    journal append — so the p99 includes retry amplification, failover
    takeovers, and journal-replay restarts, not just the happy path.

    The stage's ``speedup`` is the wall-clock *scaling efficiency*:
    storm seconds per device at ``baseline_devices`` over the same at
    the full fleet (same arrival window, ~10x the load).  Per-device
    crypto costs the same at any wave size and per-wave costs spread
    over more devices, so ~1.0 or better is healthy;
    :data:`FLEET_SCALING_MIN_EFFICIENCY` catches superlinear per-wave
    costs.  After the storm the stage
    restarts any still-dark shard (journal recovery), reconciles the
    cross-shard at-most-one-live-license invariant, and offline-verifies
    one sampled audit chain — all outside the timed region.
    """
    from repro.faults import hooks as fault_hooks
    from repro.faults.plan import (FaultPlan, crash_nth_shard_op,
                                   drop_nth_fleet_rpc,
                                   tear_nth_journal_append)
    from repro.fleet import DeviceFleet, FleetDirector
    from repro.hw.timing import VirtualClock

    def build(tag: str, total: int, shard_count: int):
        # One fleet seed for both sizes: deterministic_keypair is
        # process-cached per (context, bits), so every tenant's RSA
        # cost is paid once and both timed storms compare pure batched
        # symmetric-crypto work.
        clock = VirtualClock()
        fleet = DeviceFleet(clock, key_bits=key_bits, seed=b"bench-fleet")
        per_cohort = max(1, total // (len(fleet.tenants)
                                      * cohorts_per_tenant))
        for tenant in fleet.tenants:
            for index in range(cohorts_per_tenant):
                fleet.build_cohort(tenant, f"{tenant}-{tag}-c{index}",
                                   per_cohort)
        director = FleetDirector(
            clock, [f"shard-{index:02d}" for index in range(shard_count)],
            fleet.tenants)
        return fleet, director

    # Baseline fleet: same storm window at a tenth of the load, no
    # faults (the windows below are absolute-size and would distort a
    # small fleet's per-device cost far more than the full one's).
    fleet_small, director_small = build("base", baseline_devices, shards)
    baseline_s, _ = _measure(
        lambda: director_small.run_storm(fleet_small.cohorts), 1)

    built = {}
    build_s, _ = _measure(
        lambda: built.update(zip(("fleet", "director"),
                                 build("full", devices, shards))), 1)
    fleet, director = built["fleet"], built["director"]
    plan = FaultPlan(fault_seed, [
        drop_nth_fleet_rpc(5_000, span=64),
        drop_nth_fleet_rpc(60_000, span=64),
        drop_nth_fleet_rpc(150_000, span=64),
        crash_nth_shard_op(40_000),
        tear_nth_journal_append(60_000),
    ])
    report = None

    def full_storm():
        nonlocal report
        report = director.run_storm(fleet.cohorts)

    with fault_hooks.installed(plan):
        storm_s, _ = _measure(full_storm, 1)

    # Post-storm control-plane sweep (untimed): recovery, the global
    # license invariant, and one audit chain checked offline.
    for shard in director.shards.values():
        if not shard.up:
            shard.restart()
    reconciled = director.reconcile()
    live = director.live_licenses()
    sampled = next(iter(director.shards.values()))
    sampled.audit.seal()
    audit_head = sampled.audit.verify()

    actual = fleet.device_count
    return _stage(
        baseline_s / baseline_devices, storm_s / actual,
        devices=actual, shards=shards, baseline_devices=baseline_devices,
        cohorts=len(fleet.cohorts), key_bits=key_bits,
        fault_seed=fault_seed, faults_fired=len(plan.events),
        build_s=build_s, storm_s=storm_s, baseline_storm_s=baseline_s,
        licenses_per_sec=report.granted / storm_s,
        min_licenses_per_sec=FLEET_MIN_LICENSES_PER_SEC,
        p50_ms=report.p50_ms, p99_ms=report.p99_ms,
        p99_slo_ms=FLEET_P99_SLO_MS,
        slo_met=report.p99_ms <= FLEET_P99_SLO_MS,
        granted=report.granted, stalled=report.stalled,
        completed=report.completed, waves=report.waves,
        retries=report.retries, drops=report.drops,
        takeovers=report.takeovers, crashes=report.crashes,
        restarts=report.restarts,
        virtual_seconds=report.virtual_seconds,
        journal_records=report.journal_records,
        audit_records=report.audit_records,
        live_licenses=len(live), duplicates_reconciled=reconciled,
        audit_head_sample=audit_head.hex(),
    )


def run_benchmarks(model=None, model_bytes: bytes | None = None) -> dict:
    """Run every stage; returns the report dict (see DEFAULT_REPORT_PATH)."""
    if model is None:
        from repro.eval.pretrained import standard_model
        model, _ = standard_model()
    if model_bytes is None:
        from repro.tflm.serialize import serialize_model
        model_bytes = serialize_model(model)
    stages = {
        "crypto_provisioning_roundtrip": bench_crypto(model_bytes),
        "inference_kws_100": bench_inference(model),
        "inference_fused": bench_inference_fused(),
        "seal_pipeline": bench_seal_pipeline(),
        "dsp_streaming_10s": bench_dsp(),
        "provisioning_end_to_end": bench_provisioning(model),
        "fault_hooks": bench_fault_hooks(),
        "static_analysis": bench_static_analysis(),
        "serving_throughput": bench_serving(),
        "serving_concurrency": bench_serving_concurrency(),
        "telemetry_overhead": bench_telemetry(),
        "fleet_provisioning": bench_fleet_provisioning(),
    }
    return {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "thresholds": {
            "crypto_provisioning_roundtrip": CRYPTO_MIN_SPEEDUP,
            "inference_kws_100": INFERENCE_MIN_SPEEDUP,
            "inference_fused": INFERENCE_FUSED_MIN_SPEEDUP,
            "seal_pipeline": SEAL_PIPELINE_MIN_SPEEDUP,
            "serving_throughput": SERVING_MIN_SPEEDUP,
            "serving_concurrency": SERVING_CONCURRENCY_MIN_EFFICIENCY,
            "serving_concurrency_p99_slo_ms": SERVING_CONCURRENCY_P99_SLO_MS,
            "fleet_provisioning": FLEET_SCALING_MIN_EFFICIENCY,
            "fleet_min_licenses_per_sec": FLEET_MIN_LICENSES_PER_SEC,
            "fleet_p99_slo_ms": FLEET_P99_SLO_MS,
        },
        "stages": stages,
    }


def write_report(report: dict, path: str = DEFAULT_REPORT_PATH) -> str:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    written = write_report(run_benchmarks())
    print(f"wrote {written}")
