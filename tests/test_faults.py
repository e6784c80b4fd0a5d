"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro import faults
from repro.crypto.rng import HmacDrbg
from repro.errors import FaultInjected, ReproError
from repro.faults import hooks
from repro.faults.plan import DROPPED, SITES
from repro.hw.memory import PhysicalMemory, Tzasc, World
from repro.hw.bus import SystemBus


@pytest.fixture()
def bus():
    return SystemBus(PhysicalMemory(1 << 20), Tzasc())


# --- rule validation --------------------------------------------------------

def test_unknown_site_rejected():
    with pytest.raises(ReproError, match="unknown fault site"):
        faults.FaultRule("warp.core", "drop", nth=1)


def test_rule_needs_a_trigger():
    with pytest.raises(ReproError, match="needs a trigger"):
        faults.FaultRule("bus.write", "drop")


def test_nth_is_one_based():
    with pytest.raises(ReproError, match="1-based"):
        faults.FaultRule("bus.write", "drop", nth=0)


def test_probability_range_checked():
    with pytest.raises(ReproError, match="probability"):
        faults.FaultRule("bus.write", "drop", probability=1.5)


def test_all_sites_accept_rules():
    for site in SITES:
        faults.FaultRule(site, "noop", nth=1)


# --- install / uninstall ----------------------------------------------------

def test_no_plan_installed_by_default():
    assert hooks.current() is None


def test_installed_scopes_the_plan():
    plan = faults.FaultPlan(1, [])
    with faults.installed(plan):
        assert hooks.current() is plan
    assert hooks.current() is None


def test_double_install_is_refused():
    with faults.installed(faults.FaultPlan(1, [])):
        with pytest.raises(ReproError, match="already installed"):
            faults.install(faults.FaultPlan(2, []))
    assert hooks.current() is None


def test_installed_uninstalls_on_error():
    with pytest.raises(ValueError):
        with faults.installed(faults.FaultPlan(1, [])):
            raise ValueError("boom")
    assert hooks.current() is None


def test_the_three_hook_slots_each_write_their_own_global():
    """Fault, telemetry and sanitizer slots share one implementation but
    each installs into its own module global — the attribute the
    instrumented sites load."""
    from repro.obs import hooks as obs_hooks
    from repro.sanitizers import hooks as sanitizer_hooks

    slots = [(hooks, "PLAN"), (obs_hooks, "TELEMETRY"),
             (sanitizer_hooks, "STATE")]
    for module, name in slots:
        value = object()
        with module.installed(value):
            assert getattr(module, name) is value
            assert module.current() is value
            assert all(getattr(other, other_name) is None
                       for other, other_name in slots if other is not module)
        assert getattr(module, name) is None


# --- bus faults -------------------------------------------------------------

def test_drop_nth_bus_write_loses_exactly_one_write(bus):
    plan = faults.FaultPlan(3, [faults.drop_nth_bus_write(2)])
    with faults.installed(plan):
        bus.write(0x100, b"first", World.SECURE, core_id=None)
        bus.write(0x200, b"second", World.SECURE, core_id=None)
        bus.write(0x300, b"third", World.SECURE, core_id=None)
    assert bus.read(0x100, 5, World.SECURE, None) == b"first"
    assert bus.read(0x200, 6, World.SECURE, None) == b"\x00" * 6  # lost
    assert bus.read(0x300, 5, World.SECURE, None) == b"third"
    assert plan.fired("bus.write") == 1


def test_corrupt_bus_write_flips_one_bit(bus):
    payload = bytes(64)
    plan = faults.FaultPlan(4, [faults.corrupt_nth_bus_write(1)])
    with faults.installed(plan):
        bus.write(0, payload, World.SECURE, core_id=None)
    landed = bus.read(0, len(payload), World.SECURE, None)
    assert landed != payload
    diff = [a ^ b for a, b in zip(landed, payload) if a != b]
    assert len(diff) == 1 and bin(diff[0]).count("1") == 1


def test_corrupt_bus_read_leaves_memory_intact(bus):
    bus.write(0, b"stable-data", World.SECURE, core_id=None)
    plan = faults.FaultPlan(5, [faults.corrupt_nth_bus_read(1)])
    with faults.installed(plan):
        corrupted = bus.read(0, 11, World.SECURE, None)
    assert corrupted != b"stable-data"
    assert bus.read(0, 11, World.SECURE, None) == b"stable-data"


def test_bus_error_action_raises(bus):
    plan = faults.FaultPlan(6, [faults.FaultRule("bus.write", "error", nth=1)])
    with faults.installed(plan):
        with pytest.raises(FaultInjected, match="bus error"):
            bus.write(0, b"x", World.SECURE, core_id=None)


# --- scrub / rng faults -----------------------------------------------------

def test_skip_nth_scrub_leaves_residue():
    memory = PhysicalMemory(1 << 16)
    memory.write(0, b"secret")
    plan = faults.FaultPlan(7, [faults.skip_nth_scrub(1)])
    with faults.installed(plan):
        memory.scrub(0, 6)
        assert memory.read(0, 6) == b"secret"  # silently skipped
        memory.scrub(0, 6)
        assert memory.read(0, 6) == b"\x00" * 6  # rule spent


def test_rng_exhaustion_fires_through_the_drbg():
    plan = faults.FaultPlan(8, [faults.rng_exhaustion_at(3)])
    with faults.installed(plan):
        drbg = HmacDrbg(b"seed")
        drbg.generate(16)
        drbg.generate(16)
        with pytest.raises(FaultInjected, match="exhaustion"):
            drbg.generate(16)
        drbg.generate(16)  # recovers after the injected failure


def test_plan_drbg_does_not_consume_site_ops():
    """The plan's own DRBG draws (probability, bit positions) must not
    count as rng.generate operations — the reentrancy guard."""
    plan = faults.FaultPlan(9, [
        faults.rng_exhaustion_at(2),
        faults.corrupt_nth_bus_write(1),
    ])
    bus = SystemBus(PhysicalMemory(1 << 16), Tzasc())
    with faults.installed(plan):
        # The corruption draws plan-DRBG bytes; they must not advance
        # the rng.generate counter toward the exhaustion rule.
        bus.write(0, bytes(8), World.SECURE, core_id=None)
        HmacDrbg(b"a").generate(8)   # op 1
        with pytest.raises(FaultInjected):
            HmacDrbg(b"b").generate(8)  # op 2 -> exhaustion


# --- max_fires and determinism ---------------------------------------------

def test_max_fires_bounds_probability_rules():
    rule = faults.FaultRule("memory.scrub", "skip", probability=1.0,
                            max_fires=2)
    memory = PhysicalMemory(1 << 16)
    memory.write(0, b"xyzw")
    with faults.installed(faults.FaultPlan(10, [rule])):
        memory.scrub(0, 4)
        memory.scrub(0, 4)
        assert memory.read(0, 4) == b"xyzw"
        memory.scrub(0, 4)  # rule exhausted; this one lands
    assert memory.read(0, 4) == b"\x00" * 4


def _drive(plan):
    bus = SystemBus(PhysicalMemory(1 << 16), Tzasc())
    with faults.installed(plan):
        for i in range(8):
            bus.write(i * 32, bytes([i]) * 16, World.SECURE, core_id=None)
            bus.read(i * 32, 16, World.SECURE, None)
        memory = bus.memory
        memory.scrub(0, 64)
        try:
            HmacDrbg(b"drive").generate(4)
        except FaultInjected:
            pass
    return plan.transcript_lines()


def test_equal_seeds_give_bit_identical_transcripts():
    make = lambda: faults.FaultPlan(  # noqa: E731
        1234, [faults.corrupt_nth_bus_write(3),
               faults.FaultRule("bus.read", "corrupt", probability=0.4,
                                max_fires=3),
               faults.skip_nth_scrub(1)])
    first, second = _drive(make()), _drive(make())
    assert first == second
    assert first  # the schedule actually fired something


def test_different_seeds_differ():
    probability_rule = lambda: [faults.FaultRule(  # noqa: E731
        "bus.read", "corrupt", probability=0.5, max_fires=8)]
    a = _drive(faults.FaultPlan(1, probability_rule()))
    b = _drive(faults.FaultPlan(2, probability_rule()))
    # Same rules, different DRBG streams: the op indices that fire differ.
    assert a != b


def test_random_plan_is_reproducible():
    first = faults.random_plan(77)
    second = faults.random_plan(77)
    assert [repr(r) for r in first.rules] == [repr(r) for r in second.rules]
    assert first.rules  # never an empty schedule


def test_random_plans_cover_multiple_sites():
    sites = set()
    for seed in range(40):
        sites.update(rule.site for rule in faults.random_plan(seed).rules)
    assert {"bus.write", "memory.scrub", "lifecycle"} <= sites


def test_transcript_line_format():
    plan = faults.FaultPlan(11, [faults.drop_nth_bus_write(1)])
    bus = SystemBus(PhysicalMemory(1 << 16), Tzasc())
    with faults.installed(plan):
        bus.write(0x40, b"gone", World.SECURE, core_id=None)
    assert plan.transcript_lines() == ["0000 bus.write op=1 drop addr=0x40"]
