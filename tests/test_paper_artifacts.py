"""The paper's artifacts beyond Table I: Fig. 2's phase costs, the §VI
in-text numbers (0.3 ms world switch, ~49 kB model) and the ablations.

Every value here is simulated (virtual clock) or a byte count, so each
check is exact and host-independent.  Table I and Fig. 1's matrix are
checked in ``test_eval_harnesses.py``; the paper-vs-measured tables
render through ``repro.eval.table1``, ``repro.eval.figures`` and
``repro.cli``.
"""

import numpy as np
import pytest

from repro.audio.features import FingerprintExtractor
from repro.audio.speech_commands import (
    LABELS,
    SpeechCommandsConfig,
    SyntheticSpeechCommands,
)
from repro.baselines.voiceguard import VoiceGuardModel
from repro.core.protocol import Phase, StepIo
from repro.core.provisioning import decrypt_model, encrypt_model
from repro.crypto.rng import HmacDrbg
from repro.errors import HardwareError
from repro.eval.pretrained import standard_network
from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.timing import DEFAULT_PROFILE, VirtualClock
from repro.sanctuary.enclave import SanctuaryApp
from repro.sanctuary.lifecycle import SanctuaryRuntime
from repro.tflm.interpreter import Interpreter
from repro.tflm.serialize import deserialize_model, serialize_model
from repro.train.convert import (
    convert_tiny_conv_float,
    convert_tiny_conv_int8,
    fingerprint_to_int8,
)
from repro.train.data import features_to_float
from repro.train.zoo import build_architecture, convert_network_int8
from repro.trustzone.worlds import make_platform

KEY_BITS = 768
MiB = 1024 * 1024


# --- Fig. 2: the protocol's phases ------------------------------------------

def test_fig2_phase_costs_and_biggest_transfer(omg_session):
    """Preparation (enclave setup and boot) outweighs initialization;
    operation is dominated by the 1 s real-time capture; the model
    ciphertext (step 3) is the biggest transfer."""
    clip = SyntheticSpeechCommands().render("yes", 0)
    omg_session.recognize_via_microphone(clip.samples)
    transcript = omg_session.transcript
    prep = transcript.phase_duration_ms(Phase.PREPARATION)
    init = transcript.phase_duration_ms(Phase.INITIALIZATION)
    operation = transcript.phase_duration_ms(Phase.OPERATION)
    assert init < prep
    assert operation > 1000.0
    step3 = next(s for s in transcript.steps if s.number == 3)
    assert step3.bytes_moved == max(s.bytes_moved for s in transcript.steps
                                    if s.number <= 6)


_PREP, _INIT, _OPER = (Phase.PREPARATION, Phase.INITIALIZATION,
                       Phase.OPERATION)
_TRUSTED, _UNTRUSTED, _INTERNAL = (StepIo.TRUSTED, StepIo.UNTRUSTED,
                                   StepIo.INTERNAL)


def _fig2_rows(session):
    clip = SyntheticSpeechCommands().render("yes", 0)
    session.recognize_via_microphone(clip.samples)
    return [(s.number, s.phase, s.io, s.bytes_moved, round(s.duration_ms, 3))
            for s in session.transcript.steps]


def _fig2_expected(report, attest, wrapped_key):
    """Step 1 carries the report, step 2 the channel key exchange plus
    the sealed report record, steps 3 and 4 the K_U ciphertext and
    step 5 the wrapped key; the first three scale with the key size."""
    return [
        (1, _PREP, _TRUSTED, report, 0.6),
        (2, _PREP, _UNTRUSTED, attest, 0.0),
        (3, _PREP, _UNTRUSTED, 54324, 0.0),
        (4, _PREP, _UNTRUSTED, 54324, 0.0),
        (5, _INIT, _UNTRUSTED, wrapped_key, 0.0),
        (6, _INIT, _INTERNAL, 0, 0.557),
        (7, _OPER, _TRUSTED, 32000, 1000.617),
        (8, _OPER, _TRUSTED, 12, 9.067),
    ]


def test_fig2_transcript_is_pinned(omg_session):
    assert _fig2_rows(omg_session) == _fig2_expected(284, 1193, 96)


def test_fig2_transcript_is_pinned_at_1024_bits():
    """The ``repro.cli protocol`` session (1024-bit keys)."""
    from repro import quickstart_session

    session, _, _ = quickstart_session()
    assert _fig2_rows(session) == _fig2_expected(348, 1481, 128)


def test_repeated_queries_skip_phases_1_and_2(omg_session):
    """§V: once in the operation phase the system is queried repeatedly
    without another preparation, initialization or vendor round."""
    dataset = SyntheticSpeechCommands()
    for i in range(5):
        omg_session.recognize_clip(dataset.render("go", i).samples)
    assert omg_session.vendor.keys_released == 1
    assert omg_session.vendor.provisioned_count == 1


# --- §VI in-text numbers ------------------------------------------------------

def test_sa_world_switch_round_trip(omg_session):
    """SA -> secure world -> SA: about 0.3 ms each way."""
    clock = omg_session.clock
    before = clock.now_ms
    omg_session.ctx.secure_call("keymaster", "platform_certificate")
    assert clock.now_ms - before == pytest.approx(0.6, rel=0.05)


def test_secure_audio_io_overhead_is_negligible(omg_session):
    """Reading the microphone through the secure world costs two world
    switches plus the copy on top of the recording itself."""
    soc = omg_session.platform.soc
    clip = SyntheticSpeechCommands().render("yes", 0)
    soc.microphone.attach_source(omg_session._mic_source)
    soc.microphone.assign_secure()
    omg_session.platform.secure_world.trusted_os.invoke(
        "peripheral-gateway", "grant",
        enclave_name=omg_session.instance.instance_name,
        peripheral="microphone")
    omg_session._mic_source.queue_clip(clip.samples)
    before = omg_session.clock.now_ms
    omg_session.ctx.record_audio(len(clip.samples))
    total_ms = omg_session.clock.now_ms - before
    capture_ms = 1000.0 * len(clip.samples) / soc.microphone.sample_rate_hz
    overhead_ms = total_ms - capture_ms
    assert overhead_ms == pytest.approx(
        2 * soc.profile.sa_world_switch_ms, rel=0.5)
    assert overhead_ms < 1.0


def test_model_artifact_is_about_49_kB(pretrained_model):
    blob = serialize_model(pretrained_model)
    assert 45 < len(blob) / 1024 < 60
    assert (deserialize_model(blob).metadata.name
            == pretrained_model.metadata.name)


# --- enclave life cycle -------------------------------------------------------

def test_enclave_lifecycle_costs(omg_session):
    omg_session.teardown()
    costs = omg_session.instance.costs
    assert costs.boot_ms > costs.setup_ms  # keygen and measurement dominate
    assert costs.total_ms() < 400.0


def test_resumed_queries_amortize_the_launch(omg_session):
    """Between queries the core returns to the OS; a resumed query pays
    resume + inference, and the one-time launch cost vanishes."""
    costs = omg_session.instance.costs
    one_time_ms = costs.setup_ms + costs.boot_ms + costs.attest_ms
    fingerprint = FingerprintExtractor().extract(
        SyntheticSpeechCommands().render("yes", 0).samples)
    omg_session.suspend()
    before = omg_session.clock.now_ms
    omg_session.recognize_fingerprint(fingerprint)
    per_query_ms = omg_session.clock.now_ms - before
    assert (one_time_ms + 1000 * per_query_ms) / 1000 < per_query_ms * 1.3
    assert per_query_ms < 30.0


# --- L2 exclusion ---------------------------------------------------------------

def test_l2_exclusion_costs_its_calibrated_penalty(pretrained_model):
    def runtime_ms(l2_excluded: bool) -> float:
        clock = VirtualClock()
        interpreter = Interpreter(pretrained_model)
        interpreter.attach_timing(clock, 2.4e9, l2_excluded=l2_excluded)
        x = np.zeros((1, 49, 43, 1), dtype=np.int8)
        for _ in range(10):
            interpreter.classify(x)
        return clock.now_ms * 10  # scaled to the 100-clip subset

    assert runtime_ms(True) / runtime_ms(False) - 1 == pytest.approx(
        DEFAULT_PROFILE.l2_exclusion_penalty, rel=1e-3)


def test_l2_exclusion_miss_rate_and_isolation():
    """A 128 kB working set thrashes the 64 kB L1 but fits the 256 kB
    L2: exclusion turns every L1 miss into a DRAM access, and in return
    no other core can find an enclave line in L2."""
    enclave_base, enclave_size = 0x100000, 0x20000

    def workload(exclude: bool) -> CacheHierarchy:
        hierarchy = CacheHierarchy.for_cores(
            [0, 1], l2_config=CacheConfig(size_bytes=256 * 1024, ways=8))
        if exclude:
            hierarchy.l2.exclude_range(enclave_base, enclave_size)
        for _ in range(2):
            for offset in range(0, enclave_size, 64):
                hierarchy.access(0, enclave_base + offset)
        return hierarchy

    excluded, shared = workload(True), workload(False)
    assert excluded.l2.stats.miss_rate == 1.0
    assert shared.l2.stats.miss_rate < 1.0
    assert not excluded.l2.contains_address(enclave_base)
    assert shared.l2.contains_address(enclave_base)


# --- provisioning cost ----------------------------------------------------------

def test_provisioning_roundtrip_of_the_real_artifact(pretrained_model):
    blob = serialize_model(pretrained_model)
    key = b"K" * 16
    encrypted = encrypt_model(blob, key, "sa#1", "tiny_conv", 1, b"n" * 16,
                              HmacDrbg(b"bench-prov"))
    assert decrypt_model(encrypted, key) == blob


def test_provisioning_decrypt_time_across_model_scales():
    """Simulated in-enclave decryption at the profile's software AES
    rate: the 53 kB tiny_conv and the 80 MB dictation model of §I."""
    def decrypt_ms(size: int) -> float:
        return 1000.0 * (size / MiB) / DEFAULT_PROFILE.aes_mib_per_s

    assert decrypt_ms(53 * 1024) < 1.0
    assert decrypt_ms(80 * MiB) < 2000.0


# --- the small-footprint KWS family ---------------------------------------------

def test_architecture_zoo_latency_ordering():
    """Simulated in-enclave latency follows MACs, and tiny_conv is the
    3.87 ms calibration anchor.  MACs, artifact size and latency depend
    on the architecture only, so the networks are converted untrained;
    the quick task's data only calibrates the quantizer."""
    rng = np.random.default_rng(17)
    y = rng.integers(0, 12, size=180)
    x = rng.random((180, 49, 43, 1)) * 0.2
    for i in range(180):
        row = (y[i] * 4) % 45
        x[i, row:row + 4, 10:30, 0] += 0.7
    latency = {}
    for name in ("low_latency_conv", "tiny_conv", "conv_pool"):
        model = convert_network_int8(build_architecture(name), x[:48],
                                     name=name)
        interpreter = Interpreter(model)
        interpreter.attach_timing(VirtualClock(), 2.4e9, l2_excluded=True)
        fingerprint = (x[0, :, :, 0] * 255).astype(np.uint8)
        interpreter.classify(fingerprint_to_int8(fingerprint))
        latency[name] = interpreter.last_stats.simulated_ms
    assert (latency["low_latency_conv"] < latency["tiny_conv"]
            < latency["conv_pool"])
    assert latency["tiny_conv"] == pytest.approx(3.87, rel=0.02)


# --- offline OMG vs an online TEE -------------------------------------------------

def test_offline_omg_beats_online_tee_on_every_network():
    omg_query_ms = 3.87 + 4.6  # inference + in-enclave feature extraction
    rows = VoiceGuardModel().compare_against_omg(omg_query_ms)
    by_name = {name: latency for name, latency, _ in rows}
    assert by_name["offline"] is None
    assert by_name["wifi"] > omg_query_ms
    assert by_name["edge"] > 100 * omg_query_ms
    assert by_name["wifi"] < by_name["lte"] < by_name["3g"] < by_name["edge"]


# --- many enclaves on the octa-core -------------------------------------------------

class _InferenceApp(SanctuaryApp):
    name = "worker"

    def __init__(self, model) -> None:
        self.model = model

    def on_boot(self, ctx):
        interpreter = Interpreter(self.model)
        interpreter.attach_timing(ctx.clock, ctx.core_freq_hz, ctx.profile,
                                  l2_excluded=True)
        ctx.app_state["interpreter"] = interpreter

    def handle(self, ctx, request):
        index, _ = ctx.app_state["interpreter"].classify(
            np.zeros((1, 8, 6, 1), dtype=np.int8))
        return bytes([index])


def test_concurrent_enclaves_get_own_cores_and_flat_cost(tiny_model):
    """§III-B: every enclave gets its own core and a disjoint region, so
    no enclave slows another down.  Past the four 2.4 GHz cores the
    rest land on 1.8 GHz cores and run at most 4/3 slower."""
    per_query = {}
    for count in (1, 3, 7):
        platform = make_platform(seed=b"multi-enclave", key_bits=KEY_BITS)
        runtime = SanctuaryRuntime(platform)
        instances = [runtime.launch(_InferenceApp(tiny_model),
                                    heap_bytes=1 << 20)
                     for _ in range(count)]
        per_query[count] = []
        for instance in instances:
            before = platform.soc.clock.now_ms
            instance.invoke(b"q")
            per_query[count].append(platform.soc.clock.now_ms - before)
        assert len({instance.core_id for instance in instances}) == count
        regions = [instance.region for instance in instances]
        assert not any(a.overlaps(b) for i, a in enumerate(regions)
                       for b in regions[i + 1:])
        for instance in instances:
            instance.teardown()
    assert min(per_query[7]) == pytest.approx(max(per_query[1]), rel=0.01)
    assert max(per_query[7]) <= max(per_query[1]) * (2.4 / 1.8) * 1.02


def test_eighth_enclave_fails_cleanly():
    """The OS always keeps one of the eight cores."""
    class NoopApp(SanctuaryApp):
        name = "noop"

        def handle(self, ctx, request):
            return b""

    runtime = SanctuaryRuntime(make_platform(seed=b"exhaust",
                                             key_bits=KEY_BITS))
    launched = 0
    with pytest.raises(HardwareError):
        for _ in range(9):
            runtime.launch(NoopApp(), heap_bytes=1 << 20)
            launched += 1
    assert launched == 7


# --- accuracy ablations -----------------------------------------------------------

NOISE_FACTORS = [0.5, 1.0, 2.0, 4.0]
PER_CLASS = 5


def test_accuracy_degrades_gracefully_with_noise(pretrained_model):
    """The model trained at the calibrated 1.0x noise floor, evaluated on
    test subsets re-rendered at scaled floors: monotone within one
    misclassified clip, collapsing at 4x."""
    extractor = FingerprintExtractor()
    interpreter = Interpreter(pretrained_model)
    base = SpeechCommandsConfig()
    accuracy = {}
    for factor in NOISE_FACTORS:
        dataset = SyntheticSpeechCommands(SpeechCommandsConfig(
            noise_rms=base.noise_rms * factor,
            formant_jitter=base.formant_jitter, seed=base.seed))
        subset = dataset.paper_test_subset(per_class=PER_CLASS)
        correct = 0
        for utterance in subset:
            index, _ = interpreter.classify(fingerprint_to_int8(
                extractor.extract(utterance.samples)))
            correct += int(index == utterance.label_idx)
        accuracy[factor] = correct / len(subset)
    tolerance = 1.5 / (PER_CLASS * 10)
    for easier, harder in zip(NOISE_FACTORS, NOISE_FACTORS[1:]):
        assert accuracy[harder] <= accuracy[easier] + tolerance
    assert accuracy[0.5] >= 0.6
    assert accuracy[4.0] <= 0.5


def test_int8_quantization_cost_and_gain():
    """Same trained weights as float32 and int8: the int8 artifact is
    over 3x smaller and its simulated kernels are faster by the
    profile's float multiplier, at a few points of accuracy at most."""
    network = standard_network()
    extractor = FingerprintExtractor()
    subset = SyntheticSpeechCommands().paper_test_subset(per_class=5)
    fingerprints = [extractor.extract(u.samples) for u in subset]
    labels = [u.label_idx for u in subset]
    calibration = features_to_float(
        np.stack(fingerprints[:32]).astype(np.uint8))
    float_model = convert_tiny_conv_float(network, labels=tuple(LABELS))
    int8_model = convert_tiny_conv_int8(network, calibration,
                                        labels=tuple(LABELS))

    def evaluate(model, as_float):
        interpreter = Interpreter(model)
        interpreter.attach_timing(VirtualClock(), 2.4e9, l2_excluded=True)
        correct = 0
        for fingerprint, label in zip(fingerprints, labels):
            if as_float:
                x = (fingerprint.astype(np.float32) / 255.0).reshape(
                    1, 49, 43, 1)
            else:
                x = fingerprint_to_int8(fingerprint)
            index, _ = interpreter.classify(x)
            correct += int(index == label)
        return (correct / len(labels), interpreter.last_stats.simulated_ms,
                len(serialize_model(model)))

    f_acc, f_ms, f_size = evaluate(float_model, as_float=True)
    q_acc, q_ms, q_size = evaluate(int8_model, as_float=False)
    assert q_size < f_size / 3
    assert q_ms < f_ms / 2
    assert q_ms / f_ms == pytest.approx(
        1 / DEFAULT_PROFILE.float_mac_multiplier, rel=0.1)
    assert abs(q_acc - f_acc) <= 0.06
