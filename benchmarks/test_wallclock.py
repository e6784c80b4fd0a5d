"""Wall-clock floors: vectorized hot paths, serving core, fleet storm.

Every check times its two sides in this process as interleaved A/B
pairs (:func:`_interleaved`) and asserts a ratio of the two sides'
medians against its floor; a failure prints both medians and their
interquartile ranges.  Host wall-clock measures the simulator itself:
the simulated (virtual-clock) figures are pinned by
``tests/test_sim_slo.py`` and ``tests/test_timing.py``, and are the
same whichever side runs.  No check writes a file in the tree.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import pytest

from repro.eval.bench import concurrency_testbed, storm_testbed
from tests.helpers import sequential_testbed, serving_testbed

pytestmark = pytest.mark.slow

# Vectorized kernels against their retained scalar references: the
# GCM round trip of the provisioned model, and 100 keyword-spotting
# invokes.
CRYPTO_MIN_SPEEDUP = 5.0
INFERENCE_MIN_SPEEDUP = 2.0

# Sealing a dispatch batch of response frames through the pipelined
# path (resident keystream chunks + one batched GHASH tag sweep) must
# beat per-frame GCM sealing by at least this factor.
SEAL_PIPELINE_MIN_SPEEDUP = 2.0

# The batched streaming front end may not be slower than the per-frame
# reference.
DSP_MIN_SPEEDUP = 1.0

# Multi-session serving must beat the sequential one-enclave path by at
# least this factor in wall-clock at batch 32.  Raised from 3.0 when
# the async core landed: the event-loop drive plus the batched client
# mux (one GHASH sweep per wave on both the submit and the poll side)
# roughly doubled the old synchronous-dispatch number.
SERVING_MIN_SPEEDUP = 6.0

# Per-request wall-clock at 100 sessions over the same at 1000.  1.0 is
# perfectly flat; the floor catches superlinear per-tick costs (an O(n)
# scan per tick would crater this long before it trips a functional
# test).
SERVING_CONCURRENCY_MIN_EFFICIENCY = 0.5

# Per-device storm wall-clock at 10^4 devices over the same at 10^5.
# >= 1.0 means the batched passes amortize; the floor catches
# superlinear per-wave costs (an O(fleet) scan per wave, per-device
# scalar crypto).
FLEET_SCALING_MIN_EFFICIENCY = 0.5

# Licenses granted per wall-clock second of the 10^5-device storm.  The
# pooled path issues several thousand per second; the floor catches a
# fall back to scalar per-device hashing (which lands near 100/s).
FLEET_MIN_LICENSES_PER_SEC = 800.0

# An armed empty fault plan and an installed telemetry bundle do real
# dispatch work at every hook site; they may cost at most this factor.
HOOKS_ARMED_MAX_OVERHEAD = 1.5
TELEMETRY_ENABLED_MAX_OVERHEAD = 1.5

# The static-analysis job gates CI before the tests and always runs
# cold (nothing is kept between runs), so a full run over src/repro
# must stay fast as the rule battery grows.
ANALYSIS_MAX_SECONDS = 10.0


def _timed(body) -> float:
    gc.collect()
    start = time.perf_counter()
    body()
    return time.perf_counter() - start


def _interleaved(baseline, current, pairs: int = 5):
    """Wall-clock seconds of ``pairs`` runs of each side, alternating
    which side goes first.

    A side is a factory: called untimed before each of its runs, it
    builds whatever state the run consumes and returns the body to
    time.
    """
    sides = (baseline, current)
    times: tuple[list, list] = ([], [])
    for index in range(pairs):
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            times[side].append(_timed(sides[side]()))
    return times


def _describe(times) -> str:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return f"median {median:.4g} s (IQR {q3 - q1:.3g} s)"


def _ratio(numerator, denominator) -> tuple[float, str]:
    """Median of ``numerator`` over median of ``denominator``, and a
    description of both samples for the failure message."""
    ratio = float(np.median(numerator) / np.median(denominator))
    return ratio, (f"ratio {ratio:.3f}: {_describe(numerator)} over "
                   f"{_describe(denominator)}")


def _invokes(model, interpreter, inputs, count: int = 100):
    def body() -> None:
        for index in range(count):
            interpreter.set_input(model.inputs[0], inputs[index % len(inputs)])
            interpreter.invoke()
    return body


def _assert_same_outputs(model, first, second, inputs) -> None:
    """Bit-identical outputs and simulated cycles, so a speed-up never
    comes from cut corners."""
    for x in inputs:
        for interpreter in (first, second):
            interpreter.set_input(model.inputs[0], x)
            interpreter.invoke()
        assert np.array_equal(first.get_output(model.outputs[0]),
                              second.get_output(model.outputs[0]))
        assert first.last_stats.cycles == second.last_stats.cycles


def _random_inputs(model, seed: int):
    spec = model.tensors[model.inputs[0]]
    rng = np.random.default_rng(seed)
    return [rng.integers(-128, 128, size=spec.shape, dtype=np.int8)
            for _ in range(8)]


# --- kernels against their references ----------------------------------------

def test_crypto_speedup_floor(pretrained_model):
    """GCM encrypt + authenticated decrypt of the serialized model:
    batched T-table AES + table GHASH against the scalar reference."""
    from repro.crypto.modes import GCM
    from repro.tflm.serialize import serialize_model

    model_bytes = serialize_model(pretrained_model)
    key, nonce, aad = bytes(range(32)), b"\xa5" * 12, b"sa#1|tiny_conv|1"

    def roundtrip(reference: bool):
        def body() -> None:
            gcm = GCM(key, reference=reference)
            ciphertext, tag = gcm.encrypt(nonce, model_bytes, aad)
            assert gcm.decrypt(nonce, ciphertext, tag, aad) == model_bytes
        return lambda: body

    reference, fast = _interleaved(roundtrip(True), roundtrip(False))
    speedup, detail = _ratio(reference, fast)
    assert speedup >= CRYPTO_MIN_SPEEDUP, detail


def test_inference_speedup_floor(pretrained_model):
    from repro.tflm.interpreter import Interpreter

    model = pretrained_model
    inputs = _random_inputs(model, 1234)
    fast = Interpreter(model)
    ref = Interpreter(model, reference_kernels=True)
    _assert_same_outputs(model, fast, ref, inputs)

    reference, current = _interleaved(
        lambda: _invokes(model, ref, inputs),
        lambda: _invokes(model, fast, inputs))
    speedup, detail = _ratio(reference, current)
    assert speedup >= INFERENCE_MIN_SPEEDUP, detail


def test_seal_pipeline_floor():
    """Sealing one dispatch batch of 32 frames: per-frame AES-GCM
    against the dispatcher's pipeline — keystream chunks already
    resident in the cache (a warm lane's chunk was generated by
    earlier reads, so chunk generation is off this path), one XOR
    across the batch, one batched GHASH sweep for the tags.  The timed
    passes must add no keystream misses, the pipeline's whole
    point."""
    from repro.crypto.keycache import KeystreamCache
    from repro.crypto.modes import GCM, FrameTagKey, frame_tags_batched
    from repro.serve.frames import frame_aad, frame_j0

    frames, payload_bytes, session = 32, 2107, 1
    payloads = np.random.default_rng(2718).integers(
        0, 256, size=(frames, payload_bytes), dtype=np.uint8)
    seal_key, tag_key = bytes(range(16)), bytes(range(16, 32))
    tagger = FrameTagKey(tag_key)
    j0s = [frame_j0(seq) for seq in range(frames)]
    aads = [frame_aad(session, seq) for seq in range(frames)]
    chunk_bytes = 65536
    cache = KeystreamCache(capacity=64, chunk_bytes=chunk_bytes)
    total = frames * payload_bytes
    cache.take(session, seal_key, 0, total)
    warm_misses = cache.misses
    gcm = GCM(seal_key)

    def per_frame() -> None:
        for seq in range(frames):
            gcm.encrypt(seq.to_bytes(12, "big"), payloads[seq].tobytes(),
                        aads[seq])

    def keystream(seq: int) -> np.ndarray:
        return cache.take(session, seal_key, seq * payload_bytes,
                          payload_bytes)

    def pipelined():
        ciphertexts = payloads ^ np.stack(
            [keystream(seq) for seq in range(frames)])
        return frame_tags_batched([tagger] * frames, j0s, aads,
                                  [row.tobytes() for row in ciphertexts])

    tags = pipelined()
    for seq in range(frames):
        sealed = (payloads[seq] ^ keystream(seq)).tobytes()
        assert tagger.verify(j0s[seq], aads[seq], sealed, tags[seq])

    baseline, current = _interleaved(lambda: per_frame, lambda: pipelined)
    speedup, detail = _ratio(baseline, current)
    assert speedup >= SEAL_PIPELINE_MIN_SPEEDUP, detail
    assert cache.misses == warm_misses, (warm_misses, cache.misses)


def test_streaming_dsp_not_slower():
    """10 s of audio fed in 100 ms chunks: batched FFT path against the
    per-frame reference, each run on a fresh extractor."""
    from repro.audio.features import FeatureConfig
    from repro.audio.streaming import StreamingFeatureExtractor

    cfg = FeatureConfig()
    audio = np.random.default_rng(99).integers(
        -3000, 3000, size=10 * cfg.sample_rate).astype(np.int16)
    step = cfg.sample_rate // 10
    chunks = [audio[i:i + step] for i in range(0, len(audio), step)]
    fast = StreamingFeatureExtractor(cfg)
    ref = StreamingFeatureExtractor(cfg, reference=True)
    for chunk in chunks[:10]:
        fast.feed(chunk)
        ref.feed(chunk)
        assert np.array_equal(fast.fingerprint(), ref.fingerprint())

    def stream(reference: bool):
        def body() -> None:
            extractor = StreamingFeatureExtractor(cfg, reference=reference)
            for chunk in chunks:
                extractor.feed(chunk)
        return lambda: body

    reference, current = _interleaved(stream(True), stream(False))
    speedup, detail = _ratio(reference, current)
    assert speedup >= DSP_MIN_SPEEDUP, detail


# --- serving core ------------------------------------------------------------

def _warmed(testbed):
    """Run one untimed pass of a fresh ``(owner, drive)`` testbed, so
    the timed pass measures steady-state serving: enclave launch,
    attestation, provisioning and the first touch of every session's
    keys are set-up, paid once per deployment."""
    testbed[1]()
    return testbed


def test_serving_throughput_floor(pretrained_model):
    """64 requests through the batch-32 serving core (three sessions,
    two workers) against the same requests one at a time through
    :class:`~repro.serve.SequentialBaseline` — per-request
    secure-channel records, mailbox copies, suspend between queries."""
    sequential, batched = _interleaved(
        lambda: _warmed(sequential_testbed(
            pretrained_model, b"bench-serving", 64))[1],
        lambda: _warmed(serving_testbed(
            pretrained_model, b"bench-serving-32", 32, 64))[1])
    speedup, detail = _ratio(sequential, batched)
    assert speedup >= SERVING_MIN_SPEEDUP, detail


def test_serving_concurrency_efficiency(pretrained_model):
    """Per-request cost of the one-request-per-session pass may not
    degrade superlinearly from 100 to 1000 concurrent sessions."""
    def sessions(count: int):
        return lambda: concurrency_testbed(pretrained_model, count)[1]

    small, large = _interleaved(sessions(100), sessions(1000))
    efficiency, detail = _ratio([t / 100 for t in small],
                                [t / 1000 for t in large])
    assert efficiency >= SERVING_CONCURRENCY_MIN_EFFICIENCY, detail


def test_telemetry_enabled_overhead_bounded(pretrained_model):
    """One steady-state serving pass (24 requests, batch 8) with no
    telemetry bundle against the same pass with one installed: spans
    recorded, metrics updated."""
    from repro.obs import Telemetry, hooks as obs_hooks

    installed = []

    def testbed():
        return serving_testbed(pretrained_model, b"bench-telemetry", 8, 24)

    def enabled():
        service, drive = _warmed(testbed())
        telemetry = Telemetry(service.clock)
        installed.append(telemetry)

        def body() -> None:
            with obs_hooks.installed(telemetry):
                drive()
        return body

    disabled, current = _interleaved(lambda: _warmed(testbed())[1],
                                     enabled)
    overhead, detail = _ratio(current, disabled)
    assert overhead <= TELEMETRY_ENABLED_MAX_OVERHEAD, detail
    assert all(t.tracer.buffer.appended > 0 for t in installed)
    assert all(len(t.metrics) > 0 for t in installed)


# --- fleet control plane -----------------------------------------------------

def test_fleet_storm_scaling_and_throughput():
    """The storm at 10^4 devices with no faults against the full 10^5
    under the seeded fault schedule: per-device wall-clock may not
    degrade past the efficiency floor, and the full storm must land
    licenses at the throughput floor."""
    from repro.faults import hooks as fault_hooks

    granted = []

    def small():
        fleet, director, _ = storm_testbed(10_000)
        return lambda: director.run_storm(fleet.cohorts)

    def full():
        fleet, director, plan = storm_testbed(100_000)

        def body() -> None:
            with fault_hooks.installed(plan):
                granted.append(director.run_storm(fleet.cohorts).granted)
        return body

    baseline, storm = _interleaved(small, full, pairs=3)
    efficiency, detail = _ratio([t / 10_000 for t in baseline],
                                [t / 100_000 for t in storm])
    assert efficiency >= FLEET_SCALING_MIN_EFFICIENCY, detail
    licenses_per_sec = float(np.median(granted) / np.median(storm))
    assert licenses_per_sec >= FLEET_MIN_LICENSES_PER_SEC, (
        f"{licenses_per_sec:.0f} licenses/s: {_describe(storm)}")


# --- hook sites --------------------------------------------------------------

def test_fault_hooks_cheap_when_armed():
    """A workload hammering every fault hook site — bus reads/writes,
    scrubs, DRBG generates, channel seal/open — with no plan installed
    against the same under an armed empty plan (full dispatch, zero
    matching rules)."""
    from repro import faults
    from repro.core.channels import ChannelEndpoint
    from repro.crypto.rng import HmacDrbg
    from repro.hw.bus import SystemBus
    from repro.hw.memory import PhysicalMemory, Tzasc, World

    def workload() -> None:
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

    def armed() -> None:
        with faults.installed(faults.FaultPlan(0, [])):
            workload()

    disabled, current = _interleaved(lambda: workload, lambda: armed)
    overhead, detail = _ratio(current, disabled)
    assert overhead <= HOOKS_ARMED_MAX_OVERHEAD, detail


# --- the invariant checker itself --------------------------------------------

def test_analysis_within_budget():
    """The full rule suite over the installed ``repro`` package, cold:
    every run parses and analyzes the whole tree, as CI does."""
    import repro
    from repro.analysis import run_analysis

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    times = [_timed(lambda: run_analysis([package_dir])) for _ in range(5)]
    assert float(np.median(times)) <= ANALYSIS_MAX_SECONDS, _describe(times)
