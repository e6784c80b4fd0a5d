"""Runtime sanitizers: unit coverage + full-stack integration.

Unit tests drive the state machines directly with hand-built
violations; the integration tests install the bundle for a complete
serving run and a complete enclave lifecycle and assert nothing fires
— the sanitizers' false-positive rate on correct code must be zero or
nobody will run them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sanitizers as san
from repro.errors import SanitizerViolation
from repro.sanitizers import hooks

from .conftest import TEST_KEY_BITS


# --- SecretSanitizer units ---------------------------------------------


def test_leaked_buffer_flagged_at_teardown():
    secrets = san.SecretSanitizer()
    secrets.on_track(bytearray(b"\xabKEY" * 8), origin="test-cache")
    with pytest.raises(SanitizerViolation, match="still live"):
        secrets.check_teardown()


def test_scrubbed_buffer_is_clean():
    from repro.crypto.keycache import scrub_secret

    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        buf = bytearray(b"\xabKEY" * 8)
        bundle.secrets.on_track(buf, origin="test-cache")
        scrub_secret(buf)
    assert bundle.secrets.scrubbed_total == 1
    bundle.secrets.check_teardown()  # no live buffers, no violation


def test_immutable_bytes_secret_rejected_on_track():
    secrets = san.SecretSanitizer()
    with pytest.raises(SanitizerViolation, match="immutable bytes"):
        secrets.on_track(b"\xabKEY" * 8, origin="test-cache")


def test_unscrubbed_free_detected_via_scrub_hook():
    """A scrub that silently failed (immutable leaf reached
    scrub_secret) must raise, not pass."""
    from repro.crypto.keycache import scrub_secret

    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        with pytest.raises(SanitizerViolation, match="nonzero bytes"):
            scrub_secret(b"\xabKEY" * 8)


def test_composite_entries_tracked_per_leaf():
    secrets = san.SecretSanitizer()
    pair = (bytearray(b"\x01" * 16), bytearray(b"\x02" * 16))
    secrets.on_track(pair, origin="session-keys")
    assert secrets.tracked_total == 2


def _soc_with_region(policy):
    """A fresh SoC with one 4 KB region under ``policy``."""
    from repro.trustzone.worlds import make_platform

    platform = make_platform(seed=b"secret-sweep-test",
                             key_bits=TEST_KEY_BITS)
    region = platform.soc.allocate_region("sweep-target", 4096)
    platform.monitor.configure_region(region, policy)
    return platform.soc, region


def _scrubbed_key(secrets):
    """Track a key and scrub it properly, so only a stray copy of it
    can trip the sweep; returns the key's bytes."""
    key = bytearray(range(1, 33))
    secrets.on_track(key, origin="test-cache")
    copy = bytes(key)
    key[:] = bytes(len(key))
    secrets.on_scrub(key)
    return copy


def test_teardown_sweep_finds_residue_in_unlocked_dram():
    from repro.hw.memory import RegionPolicy

    secrets = san.SecretSanitizer()
    soc, region = _soc_with_region(RegionPolicy())
    soc.memory.write(region.base + 0x100, _scrubbed_key(secrets))
    with pytest.raises(SanitizerViolation,
                       match="test-cache in unlocked DRAM"):
        secrets.check_teardown(soc)


def test_teardown_sweep_finds_zero_padded_secret_in_dram():
    """A secret that starts with zeros, copied into zeroed DRAM, merges
    with the zero run before it; the sweep must still find it."""
    from repro.hw.memory import RegionPolicy

    secrets = san.SecretSanitizer()
    secret = bytes(16) + bytes(range(1, 33))
    secrets.on_observe(secret, origin="padded-input")
    soc, region = _soc_with_region(RegionPolicy())
    soc.memory.write(region.base + 0x800, secret)
    with pytest.raises(SanitizerViolation,
                       match="padded-input in unlocked DRAM"):
        secrets.check_teardown(soc)


def test_teardown_sweep_ignores_locked_regions():
    from repro.hw.memory import RegionPolicy

    secrets = san.SecretSanitizer()
    soc, region = _soc_with_region(RegionPolicy(secure_only=True))
    soc.memory.write(region.base + 0x100, _scrubbed_key(secrets))
    secrets.check_teardown(soc)  # quarantined: no violation


def test_teardown_sweep_finds_residue_on_flash():
    from repro.hw.memory import RegionPolicy, World

    secrets = san.SecretSanitizer()
    soc, _ = _soc_with_region(RegionPolicy())
    soc.flash.store("stray.bin", b"hdr" + _scrubbed_key(secrets),
                    World.NORMAL)
    with pytest.raises(SanitizerViolation,
                       match="test-cache in untrusted flash"):
        secrets.check_teardown(soc)


def test_teardown_sweep_finds_hex_copy_on_named_surface():
    secrets = san.SecretSanitizer()
    key = _scrubbed_key(secrets)
    secrets.check_teardown(surfaces=[("shard-0 journal", b"grant=ok")])
    with pytest.raises(SanitizerViolation,
                       match="test-cache in shard-0 journal") as info:
        secrets.check_teardown(surfaces=[
            ("shard-0 journal", b"grant=" + key.hex().encode())])
    assert key.hex() not in str(info.value)


def test_marker_skips_low_entropy_leading_run():
    """A secret that starts with a long zero run is found by a copy of
    its diverse tail alone: the marker is not its leading bytes."""
    secrets = san.SecretSanitizer()
    tail = bytes(range(7, 7 + 64))
    secrets.on_observe(bytes(128) + tail, origin="padded-model")
    with pytest.raises(SanitizerViolation, match="padded-model in copy"):
        secrets.check_teardown(surfaces=[("copy", tail)])


# --- RingSanitizer units -----------------------------------------------


def _ring():
    from repro.hw.memory import RegionPolicy, World
    from repro.sanctuary.shm import SharedRegion, SlotRing
    from repro.trustzone.worlds import make_platform

    platform = make_platform(seed=b"ring-sanitizer-test",
                             key_bits=TEST_KEY_BITS)
    region = platform.soc.allocate_region(
        "ring-sanitizer", max(4096, SlotRing.bytes_needed(4, 64)))
    platform.monitor.configure_region(region, RegionPolicy())
    shm = SharedRegion(platform.soc, region, World.NORMAL, 4)
    return SlotRing(shm, 0, 4, 64, reset=True)


def test_commit_without_reserve_raises():
    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        ring = _ring()
        with pytest.raises(SanitizerViolation, match="without a successful"):
            ring.commit(8)


def test_double_reserve_raises():
    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        ring = _ring()
        assert ring.try_reserve() is not None
        with pytest.raises(SanitizerViolation, match="outstanding"):
            ring.try_reserve()


def test_release_without_peek_raises():
    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        ring = _ring()
        slot = ring.try_reserve()
        slot[:4] = 1
        ring.commit(4)
        # The ring has a pending message, so release() passes the
        # ring's own empty check — only the sanitizer sees that this
        # endpoint never peeked it.
        with pytest.raises(SanitizerViolation, match="never observed"):
            ring.release()


def test_dangling_reservation_flagged_at_teardown():
    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        ring = _ring()
        assert ring.try_reserve() is not None
    with pytest.raises(SanitizerViolation, match="never committed"):
        bundle.rings.check_teardown()


def test_correct_protocol_round_trip_is_silent():
    bundle = san.Sanitizers.full()
    with hooks.installed(bundle):
        ring = _ring()
        for value in range(6):  # wraps the 4-slot ring
            slot = ring.try_reserve()
            slot[:4] = value
            ring.commit(4)
            assert ring.try_peek() is not None
            ring.release()
    bundle.rings.check_teardown()
    assert bundle.rings.commits == 6 and bundle.rings.releases == 6


# --- integration: full serving + full lifecycle ------------------------


def test_full_serving_run_under_sanitizers(sanitizers):
    """A complete multi-session serving run (provision, open, submit,
    dispatch, poll, close, teardown) must not trip either sanitizer —
    including the teardown DRAM sweep inside ``service.teardown()``."""
    from repro.eval.trace_run import run_traced_serving

    telemetry, stats = run_traced_serving(
        requests=8, max_batch=4, num_workers=1, num_sessions=2)
    assert stats.requests_completed == 8
    assert sanitizers.secrets.tracked_total > 0
    assert sanitizers.secrets.scrubbed_total == \
        sanitizers.secrets.tracked_total
    assert sanitizers.rings.commits == sanitizers.rings.releases > 0


def test_service_teardown_scrubs_sessions_left_open(sanitizers):
    """Sessions still open at teardown hold lane keys and keystream
    chunks; teardown must scrub them before its leak check runs."""
    from repro.core.parties import Vendor
    from repro.serve import ServeConfig, ServingLoop, ServingService
    from repro.trustzone.worlds import make_platform

    from .helpers import build_tiny_int8_model

    model = build_tiny_int8_model()
    service = ServingService(
        make_platform(seed=b"teardown-open", key_bits=TEST_KEY_BITS),
        Vendor("ml-vendor", model, key_bits=TEST_KEY_BITS),
        ServeConfig(num_workers=1))
    loop = ServingLoop(service)
    handles = [service.open_session() for _ in range(2)]
    fingerprints = np.random.default_rng(0).integers(
        0, 256, size=(2, 8, 6), dtype=np.uint8)
    for handle, fingerprint in zip(handles, fingerprints):
        service.submit(handle, fingerprint)
    loop.run_until_idle(force=True)
    service.teardown()
    assert sanitizers.secrets.scrubbed_total == \
        sanitizers.secrets.tracked_total


def test_service_teardown_scrubs_frame_tag_mask_chunks(sanitizers):
    """A session driven past _MASK_CHUNK + 1 requests holds E_k(J0)
    mask chunks in the taggers on both sides of both lanes; teardown
    with the session still open must scrub every one of them."""
    from repro.core.parties import Vendor
    from repro.crypto.modes import _MASK_CHUNK
    from repro.serve import ServeConfig, ServingLoop, ServingService
    from repro.trustzone.worlds import make_platform

    from .helpers import build_tiny_int8_model

    model = build_tiny_int8_model()
    service = ServingService(
        make_platform(seed=b"teardown-masks", key_bits=TEST_KEY_BITS),
        Vendor("ml-vendor", model, key_bits=TEST_KEY_BITS),
        ServeConfig(num_workers=1))
    loop = ServingLoop(service)
    handle = service.open_session()
    fingerprints = np.random.default_rng(1).integers(
        0, 256, size=(_MASK_CHUNK + 2, 8, 6), dtype=np.uint8)
    for start in range(0, len(fingerprints), 16):
        for fingerprint in fingerprints[start:start + 16]:
            service.submit(handle, fingerprint)
        loop.run_until_idle(force=True)
    assert len(handle.results) == _MASK_CHUNK + 2
    taggers = (*service._service_taggers[handle.session_id],
               handle.request_tagger, handle.response_tagger)
    assert all(len(tagger._mask_chunks) for tagger in taggers)
    service.teardown()
    assert sanitizers.secrets.scrubbed_total == \
        sanitizers.secrets.tracked_total


def test_full_lifecycle_under_sanitizers(sanitizers, pretrained_model):
    """Prepare → initialize → recognize → teardown with the decrypted
    model observed: after teardown its plaintext must not be resident
    in any unlocked region of simulated DRAM."""
    from repro.audio import SyntheticSpeechCommands
    from repro.core.omg import KeywordSpotterApp, OmgSession
    from repro.core.parties import User, Vendor
    from repro.trustzone.worlds import make_platform

    platform = make_platform(key_bits=TEST_KEY_BITS)
    vendor = Vendor("ml-vendor", pretrained_model, key_bits=TEST_KEY_BITS)
    session = OmgSession(platform, vendor, User(), KeywordSpotterApp())
    session.prepare()
    session.initialize()
    # The decrypted-model marker was recorded during initialize().
    assert sanitizers.secrets._markers
    clip = SyntheticSpeechCommands().render("yes", 0)
    result = session.recognize_via_microphone(clip.samples)
    assert result.label
    session.teardown()
    # The enclave scrubbed and unlocked its regions: the sweep over
    # everything unlocked, and over flash, must come back clean.
    sanitizers.secrets.check_teardown(platform.soc)
