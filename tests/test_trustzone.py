"""TrustZone layer: secure boot, monitor, trusted OS, worlds."""

import numpy as np
import pytest

from repro.crypto.keycache import deterministic_keypair
from repro.errors import (
    MemoryAccessError,
    SecureBootError,
    SecureMonitorError,
    TrustZoneError,
)
from repro.hw.core import CoreState
from repro.hw.memory import MemoryRegion, RegionPolicy, World
from repro.trustzone.firmware import TrustedFirmware, sign_image
from repro.trustzone.trusted_os import TrustedApp, TrustedOs
from repro.trustzone.worlds import make_platform

KEY_BITS = 768
ROOT = deterministic_keypair(b"fw-root", KEY_BITS)


# --- secure boot ------------------------------------------------------------

def chain(*stages):
    return [sign_image(name, code, ROOT) for name, code in stages]


def test_boot_chain_verifies_and_logs():
    fw = TrustedFirmware(ROOT.public_key)
    fw.verify_and_boot(chain(("bl2", b"stage1"), ("tos", b"stage2")))
    assert fw.booted
    assert [name for name, _ in fw.boot_log] == ["bl2", "tos"]
    assert fw.measurement_of("bl2") != fw.measurement_of("tos")


def test_boot_rejects_bad_signature():
    fw = TrustedFirmware(ROOT.public_key)
    images = chain(("bl2", b"stage1"))
    from repro.trustzone.firmware import BootImage

    forged = BootImage("bl2", b"evil", images[0].signature)
    with pytest.raises(SecureBootError):
        fw.verify_and_boot([forged])
    assert not fw.booted


def test_boot_rejects_wrong_stage_name():
    """A valid image replayed under another stage name must fail."""
    fw = TrustedFirmware(ROOT.public_key)
    good = chain(("bl2", b"code"))[0]
    from repro.trustzone.firmware import BootImage

    renamed = BootImage("trusted-os", good.code, good.signature)
    with pytest.raises(SecureBootError):
        fw.verify_and_boot([renamed])


def test_boot_rejects_empty_chain_and_double_boot():
    fw = TrustedFirmware(ROOT.public_key)
    with pytest.raises(SecureBootError):
        fw.verify_and_boot([])
    fw.verify_and_boot(chain(("bl2", b"x")))
    with pytest.raises(SecureBootError):
        fw.verify_and_boot(chain(("bl2", b"x")))


def test_boot_log_unknown_stage():
    fw = TrustedFirmware(ROOT.public_key)
    fw.verify_and_boot(chain(("bl2", b"x")))
    with pytest.raises(SecureBootError):
        fw.measurement_of("nonexistent")


def test_make_platform_tamper_detection():
    with pytest.raises(SecureBootError):
        make_platform(key_bits=KEY_BITS, tamper_boot_stage="sanctuary-library")


# --- trusted OS --------------------------------------------------------------

class _ProbeTa(TrustedApp):
    name = "probe"

    def cmd_echo(self, text: str) -> str:
        return "echo:" + text


def test_trusted_os_dispatch():
    tos = TrustedOs()
    tos.register(_ProbeTa())
    assert tos.invoke("probe", "echo", text="hi") == "echo:hi"
    assert tos.ta_names() == ["probe"]


def test_trusted_os_unknown_ta_and_command():
    tos = TrustedOs()
    tos.register(_ProbeTa())
    with pytest.raises(TrustZoneError):
        tos.invoke("ghost", "echo")
    with pytest.raises(TrustZoneError):
        tos.invoke("probe", "nonexistent")


def test_trusted_os_duplicate_registration():
    tos = TrustedOs()
    tos.register(_ProbeTa())
    with pytest.raises(TrustZoneError):
        tos.register(_ProbeTa())


# --- platform / monitor -----------------------------------------------------

@pytest.fixture()
def booted():
    return make_platform(key_bits=KEY_BITS)


def test_smc_from_os_costs_microseconds(booted):
    before = booted.soc.clock.now_ms
    cert = booted.commodity_os.smc(0, "keymaster", "platform_certificate")
    assert cert.subject == "platform-ca"
    elapsed = booted.soc.clock.now_ms - before
    assert 0 < elapsed < 0.1  # microseconds, against 0.6 ms from an SA
    assert booted.monitor.stats.os_smc_calls == 1


def test_smc_from_sanctuary_core_costs_0_6ms(booted):
    core = booted.soc.core(1)
    core.shutdown()
    core.boot_sanctuary("test-sa")
    before = booted.soc.clock.now_ms
    booted.monitor.smc(1, "keymaster", "platform_certificate")
    elapsed = booted.soc.clock.now_ms - before
    assert elapsed == pytest.approx(0.6, rel=0.01)  # 2 x 0.3 ms
    assert booted.monitor.stats.sa_smc_calls == 1
    assert core.state is CoreState.SANCTUARY  # restored


def test_smc_from_off_core_rejected(booted):
    booted.soc.core(2).shutdown()
    with pytest.raises(SecureMonitorError):
        booted.monitor.smc(2, "keymaster", "platform_certificate")


def test_smc_restores_core_even_on_ta_failure(booted):
    with pytest.raises(TrustZoneError):
        booted.commodity_os.smc(0, "keymaster", "no_such_command")
    assert booted.soc.core(0).state is CoreState.OS


def test_monitor_lock_seal_unlock(booted):
    region = booted.soc.allocate_region("test-lock", 4096)
    booted.monitor.lock_region_to_core(region, 3)
    assert booted.monitor.locked_region_names() == {"test-lock"}
    with pytest.raises(MemoryAccessError):
        booted.commodity_os.read_memory(region.base, 16)
    booted.monitor.seal_region(region)
    with pytest.raises(MemoryAccessError):
        booted.soc.bus.read(region.base, 16, World.NORMAL, 3)
    booted.monitor.unlock_region("test-lock")
    booted.commodity_os.read_memory(region.base, 16)
    assert booted.monitor.stats.tzasc_updates >= 3


def test_commodity_os_cannot_claim_non_os_core(booted):
    booted.soc.core(1).shutdown()
    with pytest.raises(MemoryAccessError):
        booted.commodity_os.read_memory(0x1000, 4, core_id=1)


def test_commodity_os_flash_and_load(booted):
    booted.commodity_os.flash_store("f", b"contents")
    assert booted.commodity_os.flash_load("f") == b"contents"


def test_peripheral_gateway_requires_grant(booted):
    from repro.audio.speech_commands import PlaybackSource

    source = PlaybackSource()
    source.queue_clip(np.ones(16, dtype=np.int16))
    booted.soc.microphone.attach_source(source)
    with pytest.raises(SecureMonitorError):
        booted.secure_world.trusted_os.invoke(
            "peripheral-gateway", "record_audio",
            enclave_name="nobody", num_samples=16, dest_address=0x100)


def test_peripheral_gateway_grant_and_revoke(booted):
    from repro.audio.speech_commands import PlaybackSource

    source = PlaybackSource()
    source.queue_clip(np.full(16, 7, dtype=np.int16))
    booted.soc.microphone.attach_source(source)
    tos = booted.secure_world.trusted_os
    tos.invoke("peripheral-gateway", "grant", enclave_name="sa-1",
               peripheral="microphone")
    written = tos.invoke("peripheral-gateway", "record_audio",
                         enclave_name="sa-1", num_samples=16,
                         dest_address=0x2000)
    assert written == 32
    data = booted.soc.bus.read(0x2000, 32, World.SECURE, None)
    assert np.frombuffer(data, dtype="<i2")[0] == 7
    tos.invoke("peripheral-gateway", "revoke", enclave_name="sa-1",
               peripheral="microphone")
    with pytest.raises(SecureMonitorError):
        tos.invoke("peripheral-gateway", "record_audio",
                   enclave_name="sa-1", num_samples=16, dest_address=0x2000)


def test_keymaster_issues_distinct_certified_keys(booted):
    tos = booted.secure_world.trusted_os
    key1, cert1 = tos.invoke("keymaster", "issue_enclave_key",
                             enclave_name="sa-a")
    key2, cert2 = tos.invoke("keymaster", "issue_enclave_key",
                             enclave_name="sa-b")
    assert key1.n != key2.n
    assert cert1.subject == "sa-a" and cert2.subject == "sa-b"
    platform_cert = tos.invoke("keymaster", "platform_certificate")
    from repro.crypto.cert import verify_chain

    verify_chain([cert1, platform_cert,
                  booted.manufacturer_root.certificate],
                 booted.manufacturer_root.public_key)
