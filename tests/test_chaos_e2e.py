"""End-to-end chaos tests: the pipeline under seeded fault schedules.

Every schedule must satisfy
* liveness — the run completes or fails with a *typed* ReproError, and
* safety — no model/input plaintext on any untrusted surface, no
  license double-spend —
and its fault transcript must reproduce bit-for-bit from the seed.
"""

import json

import pytest

from repro import faults
from repro.core.channels import (ReliableRequester, ReliableResponder,
                                 SecureChannel)
from repro.core.license import LicensePolicy
from repro.core.omg import KeywordSpotterApp
from repro.core.parties import Vendor
from repro.core.protocol import DEFAULT_STEP_TIMEOUTS, ProtocolTranscript
from repro.core.provisioning import ProvisioningClient, VendorServer
from repro.core.retry import BackoffPolicy
from repro.crypto.rng import HmacDrbg
from repro.errors import FaultInjected, SanitizerViolation
from repro.eval.chaos import (ChaosResult, run_chaos_schedule,
                              write_chaos_transcripts)
from repro.sanctuary.lifecycle import SanctuaryRuntime
from tests.helpers import pinned_transcript_digests, transcript_digests

CHAOS_SEEDS = list(range(20))


@pytest.fixture(scope="module")
def chaos_results(tiny_model):
    """Run every schedule once; individual tests assert on the shared set."""
    return {seed: run_chaos_schedule(seed, model=tiny_model)
            for seed in CHAOS_SEEDS}


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_schedule_liveness(chaos_results, seed):
    result = chaos_results[seed]
    assert result.live, (
        f"seed {seed} violated liveness: untyped "
        f"{result.error}: {result.error_message}")


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_schedule_safety(chaos_results, seed):
    result = chaos_results[seed]
    assert result.safe, (
        f"seed {seed} violated safety: {result.safety_violations}")


def test_schedule_set_is_meaningful(chaos_results):
    """The seed set must actually exercise the resilience machinery —
    a set where nothing fires (or nothing survives) proves nothing."""
    results = chaos_results.values()
    assert sum(r.completed for r in results) >= len(CHAOS_SEEDS) // 2
    assert sum(len(r.fault_lines) for r in results) >= len(CHAOS_SEEDS)
    assert any(r.recoveries > 0 for r in results)
    assert any(r.error is not None for r in results)  # typed failures exist
    fired_sites = {line.split()[1]
                   for r in results for line in r.fault_lines}
    assert len(fired_sites) >= 4


def test_no_license_double_spend_across_all_schedules(chaos_results):
    for result in chaos_results.values():
        for enclave_id, count in result.key_requests.items():
            assert count <= 1, (result.seed, enclave_id, count)


@pytest.mark.parametrize("seed", [0, 5, 9, 17])
def test_same_seed_reproduces_transcript(chaos_results, tiny_model, seed):
    rerun = run_chaos_schedule(seed, model=tiny_model)
    reference = chaos_results[seed]
    assert rerun.fault_lines == reference.fault_lines
    assert rerun.recognitions == reference.recognitions
    assert rerun.error == reference.error
    assert rerun.completed == reference.completed


def test_transcripts_match_pinned_digests(chaos_results):
    """Every seed's transcript is byte-identical to the committed
    one: a refactor of the fault machinery must not move a fault,
    a counter or a rule."""
    assert (transcript_digests(chaos_results)
            == pinned_transcript_digests("device"))


def test_transcript_artifacts(tmp_path, chaos_results):
    out = write_chaos_transcripts(list(chaos_results.values()),
                                  str(tmp_path / "chaos"))
    files = sorted(p.name for p in (tmp_path / "chaos").iterdir())
    assert f"chaos-seed-{CHAOS_SEEDS[0]:04d}.txt" in files
    summary = json.loads((tmp_path / "chaos" / "summary.json").read_text())
    assert summary["schedules"] == len(CHAOS_SEEDS)
    assert summary["liveness_violations"] == []
    assert summary["safety_violations"] == []
    text = (tmp_path / "chaos"
            / f"chaos-seed-{CHAOS_SEEDS[0]:04d}.txt").read_text()
    assert "rules:" in text and "faults fired:" in text
    assert out.endswith("chaos")


def test_result_properties():
    ok = ChaosResult(seed=1, completed=True)
    assert ok.live and ok.safe
    typed = ChaosResult(seed=2, error="ChannelTimeout")
    assert typed.live
    untyped = ChaosResult(seed=3, error="KeyError", untyped=True)
    assert not untyped.live
    leaky = ChaosResult(seed=4, completed=True,
                        safety_violations=["model plaintext in flash"])
    assert not leaky.safe


def test_input_plaintext_on_flash_is_a_safety_violation(monkeypatch,
                                                        tiny_model):
    """An app that also writes its input plaintext to untrusted flash
    must fail the schedule's leak sweep."""
    recognize = KeywordSpotterApp.recognize_fingerprint

    def leaky(self, ctx, fingerprint):
        ctx.store_untrusted("leaked-input.bin", fingerprint.tobytes())
        return recognize(self, ctx, fingerprint)

    monkeypatch.setattr(KeywordSpotterApp, "recognize_fingerprint", leaky)
    result = run_chaos_schedule(1, model=tiny_model)
    assert result.completed and not result.safe
    assert any("flash" in line for line in result.safety_violations)


def test_sanitizer_violation_is_not_recovered(monkeypatch, tiny_model):
    """The recovery loop relaunches after a typed failure, but a
    sanitizer finding stops the schedule as a safety violation."""
    def flagged(self, ctx, fingerprint):
        raise SanitizerViolation("planted finding")

    monkeypatch.setattr(KeywordSpotterApp, "recognize_fingerprint", flagged)
    result = run_chaos_schedule(1, model=tiny_model)
    assert result.recoveries == 0 and result.error is None
    assert result.safety_violations == ["planted finding"]


# --- targeted storm: provisioning survives loss + corruption ----------------

def test_provisioning_survives_channel_storm(platform, tiny_model):
    """Drops and corruptions in both directions: retry + resume finish
    the flow, the vendor releases exactly one key, and the enclave ends
    up serving recognitions."""
    import numpy as np

    vendor = Vendor("storm-vendor", tiny_model, key_bits=768)
    app = KeywordSpotterApp()
    runtime = SanctuaryRuntime(platform)
    instance = runtime.launch(app, heap_bytes=1 << 20)
    clock = platform.soc.clock

    plan = faults.FaultPlan(99, [
        faults.drop_channel_frame(1, "send"),
        faults.corrupt_channel_frame(3, "send"),
        faults.drop_channel_frame(4, "recv"),
        faults.corrupt_channel_frame(6, "recv"),
    ])
    with faults.installed(plan):
        rng = HmacDrbg(b"storm-channel")
        enclave_end, key_exchange = SecureChannel.connect(
            vendor.public_key, rng)
        vendor_end = SecureChannel.accept(vendor.signing_key, key_exchange)
        server = VendorServer(
            vendor, SanctuaryRuntime.expected_measurement(app),
            platform.manufacturer_root.public_key, clock)
        responder = ReliableResponder(vendor_end, server.handle)
        requester = ReliableRequester(enclave_end, clock, BackoffPolicy(),
                                      HmacDrbg(b"storm-backoff"))
        client = ProvisioningClient(
            app, instance, requester, responder.handle_frame, clock,
            transcript=ProtocolTranscript(timeouts=DEFAULT_STEP_TIMEOUTS))
        client.run()

    assert plan.fired() == 4                      # every fault landed
    assert requester.attempts > responder.handled  # retries happened
    assert vendor.keys_released == 1
    assert vendor.license_state(instance.instance_name).key_requests == 1
    fingerprint = np.random.default_rng(0).integers(
        0, 256, size=(8, 6), dtype=np.uint8)
    assert app.recognize_fingerprint(instance.ctx, fingerprint).label


def test_aborted_run_names_the_rounds_it_burned(platform, tiny_model):
    """A run that exhausts its resume rounds names the rounds *it*
    burned, not the client's cumulative count across runs."""
    from repro.core.channels import reliable_link
    from repro.core.protocol import Phase
    from repro.errors import ProvisioningAborted

    vendor = Vendor("rounds-vendor", tiny_model, key_bits=768)
    app = KeywordSpotterApp()
    instance = SanctuaryRuntime(platform).launch(app, heap_bytes=1 << 20)
    clock = platform.soc.clock
    server = VendorServer(
        vendor, SanctuaryRuntime.expected_measurement(app),
        platform.manufacturer_root.public_key, clock)
    requester, responder = reliable_link(
        vendor.signing_key, server.handle, clock,
        HmacDrbg(b"rounds-channel"), HmacDrbg(b"rounds-backoff"))
    client = ProvisioningClient(app, instance, requester,
                                responder.handle_frame, clock)
    client.run(until=Phase.PREPARATION)
    assert client.rounds == 1
    blackout = faults.FaultPlan(7, [faults.FaultRule(
        "channel.seal", "drop", probability=1.0, max_fires=10**6)])
    with faults.installed(blackout):
        with pytest.raises(ProvisioningAborted,
                           match="incomplete after 3 rounds"):
            client.run()
    assert client.rounds == 4
    assert "key" not in client.completed

    # After the blackout the same client resumes to exactly one key
    # release, and a completed client's re-run sends nothing.
    client.run()
    assert client.completed == set(client.STEPS)
    assert vendor.keys_released == 1
    assert vendor.license_state(instance.instance_name).key_requests == 1
    attempts = requester.attempts
    client.run()
    assert requester.attempts == attempts
    assert vendor.keys_released == 1


def test_vendor_answers_replayed_nonce_from_cache(platform, tiny_model):
    """The idempotency layer under the channel: same request nonce, same
    response, no extra license spend."""
    vendor = Vendor("replay-vendor", tiny_model, key_bits=768)
    app = KeywordSpotterApp()
    runtime = SanctuaryRuntime(platform)
    instance = runtime.launch(app, heap_bytes=1 << 20)
    vendor.accept_attestation(
        instance.report, SanctuaryRuntime.expected_measurement(app),
        platform.manufacturer_root.public_key)

    nonce = b"once-only"[:8]
    first = vendor.provision_model(instance.instance_name,
                                   request_nonce=nonce)
    second = vendor.provision_model(instance.instance_name,
                                    request_nonce=nonce)
    assert first is second                       # cached, not re-encrypted
    assert vendor.provisioned_count == 1

    release_nonce = b"key-once"[:8]
    now = platform.soc.clock.now_ms
    wrapped_a = vendor.release_key(instance.instance_name, now,
                                   request_nonce=release_nonce)
    wrapped_b = vendor.release_key(instance.instance_name, now,
                                   request_nonce=release_nonce)
    assert wrapped_a is wrapped_b
    assert vendor.keys_released == 1
    assert vendor.license_state(instance.instance_name).key_requests == 1


def test_failed_key_wrap_does_not_charge_the_license(monkeypatch,
                                                     tiny_model):
    """Exhausting the 10th DRBG draw of seed 0's schedule fails the
    OAEP wrap inside ``release_key``; the retry with the same request
    nonce must not consume a second key request."""
    monkeypatch.setattr(
        "repro.eval.chaos.random_plan",
        lambda seed: faults.FaultPlan(
            seed, [faults.FaultRule("rng.generate", "exhaust", nth=10)]))
    result = run_chaos_schedule(0, model=tiny_model)
    assert result.fault_lines, "the exhaustion never fired"
    assert result.completed and result.safe, result.safety_violations
    assert set(result.key_requests.values()) == {1}


def test_single_use_license_survives_a_failed_key_wrap(platform,
                                                       tiny_model):
    """Under ``max_key_requests=1`` the honest retry of a release whose
    wrap failed still gets its key."""
    vendor = Vendor("single-use-vendor", tiny_model, key_bits=768)
    app = KeywordSpotterApp()
    instance = SanctuaryRuntime(platform).launch(app, heap_bytes=1 << 20)
    vendor.accept_attestation(
        instance.report, SanctuaryRuntime.expected_measurement(app),
        platform.manufacturer_root.public_key,
        policy=LicensePolicy(max_key_requests=1))
    vendor.provision_model(instance.instance_name)

    nonce = b"key-once"
    with faults.installed(faults.FaultPlan(0, [faults.rng_exhaustion_at(1)])):
        with pytest.raises(FaultInjected):
            vendor.release_key(instance.instance_name, 0.0,
                               request_nonce=nonce)
    assert vendor.license_state(instance.instance_name).key_requests == 0
    wrapped = vendor.release_key(instance.instance_name, 0.0,
                                 request_nonce=nonce)
    assert wrapped.enclave_id == instance.instance_name
    assert vendor.keys_released == 1
    assert vendor.license_state(instance.instance_name).key_requests == 1
