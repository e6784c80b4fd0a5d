"""The OMG session: full three-phase protocol on the simulated device."""

import struct

import numpy as np
import pytest

from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
from repro.core.license import LicensePolicy
from repro.core.omg import KeywordSpotterApp, OmgSession
from repro.core.parties import User, Vendor
from repro.core.protocol import Phase, StepIo
from repro.errors import LicenseError, ProtocolError
from repro.trustzone.worlds import make_platform

KEY_BITS = 768


@pytest.fixture(scope="module")
def dataset():
    return SyntheticSpeechCommands()


def make_session(pretrained_model, seed=b"platform-seed", **kwargs):
    platform = make_platform(seed=seed, key_bits=KEY_BITS)
    vendor = Vendor("ml-vendor", pretrained_model, key_bits=KEY_BITS)
    return OmgSession(platform, vendor, User(), KeywordSpotterApp(),
                      **kwargs)


def test_phases_must_run_in_order(pretrained_model):
    session = make_session(pretrained_model)
    with pytest.raises(ProtocolError):
        session.initialize()
    with pytest.raises(ProtocolError):
        session.recognize_fingerprint(np.zeros((49, 43), dtype=np.uint8))
    session.prepare()
    with pytest.raises(ProtocolError):
        session.prepare()
    with pytest.raises(ProtocolError):
        session.recognize_fingerprint(np.zeros((49, 43), dtype=np.uint8))
    session.initialize()
    with pytest.raises(ProtocolError):
        session.initialize()


def test_prepare_verifies_both_parties(omg_session):
    assert omg_session.user.trusts(omg_session.instance.instance_name)
    assert omg_session.vendor.provisioned_count == 1


def test_transcript_follows_fig2(omg_session, dataset):
    clip = dataset.render("yes", 0)
    omg_session.recognize_via_microphone(clip.samples)
    numbers = omg_session.transcript.step_numbers()
    assert numbers == [1, 2, 3, 4, 5, 6, 7, 8]
    phases = [step.phase for step in omg_session.transcript.steps]
    assert phases == ([Phase.PREPARATION] * 4
                      + [Phase.INITIALIZATION] * 2
                      + [Phase.OPERATION] * 2)
    ios = [step.io for step in omg_session.transcript.steps]
    assert ios[0] is StepIo.TRUSTED        # attest to user
    assert ios[6] is StepIo.TRUSTED        # microphone
    assert ios[2] is StepIo.UNTRUSTED      # model ciphertext


def test_encrypted_model_lands_on_flash(omg_session):
    soc = omg_session.platform.soc
    paths = [p for p in soc.flash.paths() if p.startswith("omg/")]
    assert len(paths) == 1
    blob = soc.flash.raw_bytes()
    assert omg_session.vendor.model_bytes[:64] not in blob


def test_recognition_correctness(omg_session, dataset):
    clip = dataset.render("go", 4)
    result = omg_session.recognize_clip(clip.samples)
    assert result.label in LABELS
    assert 0 <= result.label_index < 12
    assert result.scores.shape == (12,)
    assert result.inference_ms > 0
    assert result.total_ms >= result.inference_ms


def test_recognition_via_microphone_matches_direct(omg_session, dataset):
    clip = dataset.render("left", 2)
    mic_result = omg_session.recognize_via_microphone(
        clip.samples, record_transcript=False)
    direct_result = omg_session.recognize_clip(clip.samples)
    assert mic_result.label == direct_result.label
    assert np.array_equal(mic_result.scores, direct_result.scores)


def test_inference_time_matches_calibration(omg_session, dataset):
    """One OMG inference should cost ~3.87 ms simulated (387 ms / 100)."""
    clip = dataset.render("on", 1)
    result = omg_session.recognize_clip(clip.samples)
    assert result.inference_ms == pytest.approx(3.87, rel=0.02)


def test_mailbox_protocol_ping(omg_session):
    response = omg_session.instance.invoke(b"P")
    assert response.startswith(b"PONG:")


def test_mailbox_protocol_recognize(omg_session, dataset):
    clip = dataset.render("stop", 5)
    omg_session.platform.soc.microphone.attach_source(
        omg_session._mic_source)
    omg_session.platform.soc.microphone.assign_secure()
    omg_session.platform.secure_world.trusted_os.invoke(
        "peripheral-gateway", "grant",
        enclave_name=omg_session.instance.instance_name,
        peripheral="microphone")
    omg_session._mic_source.queue_clip(clip.samples)
    request = b"R" + struct.pack("<I", len(clip.samples))
    response = omg_session.instance.invoke(request)
    label_index = response[0]
    label_len = struct.unpack("<H", response[1:3])[0]
    label = response[3:3 + label_len].decode()
    assert label == LABELS[label_index]
    scores = np.frombuffer(response[3 + label_len:], dtype=np.int8)
    assert scores.shape == (12,)


def test_mailbox_rejects_bad_requests(omg_session):
    with pytest.raises(ProtocolError):
        omg_session.instance.invoke(b"")
    with pytest.raises(ProtocolError):
        omg_session.instance.invoke(b"Z")
    with pytest.raises(ProtocolError):
        omg_session.instance.invoke(b"R\x01")


def test_suspend_resume_across_queries(omg_session, dataset):
    clip = dataset.render("down", 3)
    before = omg_session.recognize_clip(clip.samples)
    omg_session.suspend()
    after = omg_session.recognize_clip(clip.samples)  # auto-resume
    assert before.label == after.label
    assert omg_session.instance.costs.resume_count >= 1


def test_license_expiry_blocks_initialization(pretrained_model):
    session = make_session(
        pretrained_model,
        license_policy=LicensePolicy(valid_until_ms=0.0))
    session.prepare()  # clock has advanced past 0 during prepare
    with pytest.raises(LicenseError):
        session.initialize()


def test_revocation_blocks_initialization(pretrained_model):
    session = make_session(pretrained_model)
    session.prepare()
    session.vendor.revoke(session.instance.instance_name)
    with pytest.raises(LicenseError):
        session.initialize()


def test_unlock_model_rejects_key_for_other_enclave(pretrained_model):
    """A key wrapped for device B is useless on device A: the OAEP wrap
    targets B's attested enclave key."""
    from repro.errors import AuthenticationError

    session_a = make_session(pretrained_model, seed=b"device-A")
    session_a.prepare()
    session_b = make_session(pretrained_model, seed=b"device-B")
    session_b.prepare()
    wrapped_b = session_b.vendor.release_key(
        session_b.instance.instance_name, 0.0)
    with pytest.raises((ProtocolError, AuthenticationError)):
        session_a.app.unlock_model(session_a.ctx, wrapped_b,
                                   pretrained_model.metadata.name)


def test_model_decrypted_only_inside_enclave(omg_session):
    """The plaintext model bytes exist in enclave memory and nowhere
    the normal world can reach."""
    ctx = omg_session.ctx
    offset = ctx.app_state["model_offset"]
    length = ctx.app_state["model_len"]
    staged = ctx.memory.read(offset, length)
    assert staged == omg_session.vendor.model_bytes
    from repro.errors import MemoryAccessError

    with pytest.raises(MemoryAccessError):
        omg_session.platform.commodity_os.read_memory(
            ctx.memory.region.base + offset, 64)


def test_teardown_ends_session(pretrained_model, dataset):
    session = make_session(pretrained_model)
    session.prepare()
    session.initialize()
    session.teardown()
    with pytest.raises(Exception):
        session.recognize_clip(dataset.render("yes", 0).samples)


def test_prepare_and_initialize_ride_out_a_dropped_channel_frame(
        pretrained_model):
    """Steps 2-6 run over the reliable channel: a lost frame is
    retransmitted, and the vendor charges the license once."""
    from repro.faults import FaultPlan, drop_channel_frame, installed

    session = make_session(pretrained_model)
    with installed(FaultPlan(7, [drop_channel_frame(1, "send")])) as plan:
        session.prepare()
        session.initialize()
    assert plan.fired("channel.seal") == 1
    license_state = session.vendor.license_state(
        session.instance.instance_name)
    assert license_state.key_requests == 1
    assert session.transcript.step_numbers() == [1, 2, 3, 4, 5, 6]
