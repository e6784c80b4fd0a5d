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
    for site, actions in SITES.items():
        for action in actions:
            faults.FaultRule(site, action, nth=1)


def test_action_a_site_does_not_honor_is_rejected():
    with pytest.raises(ReproError, match="does not honor action 'skip'"):
        faults.FaultRule("bus.write", "skip", nth=1)
    with pytest.raises(ReproError, match="does not honor"):
        faults.FaultRule("memory.scrub", "noop", nth=1)


def test_two_triggers_are_rejected():
    with pytest.raises(ReproError, match="two triggers"):
        faults.FaultRule("bus.write", "drop", nth=1, probability=0.5)


def test_max_fires_must_allow_a_fire():
    with pytest.raises(ReproError, match="max_fires"):
        faults.FaultRule("bus.write", "drop", nth=1, max_fires=0)


def test_span_needs_an_nth_trigger():
    with pytest.raises(ReproError, match="span widens an nth trigger"):
        faults.FaultRule("ring.reserve", "stall", probability=0.5, span=3)


def test_state_filter_only_on_lifecycle():
    with pytest.raises(ReproError, match="lifecycle"):
        faults.FaultRule("bus.write", "drop", nth=1, state="active")


@pytest.mark.parametrize("draw", [faults.random_plan,
                                  faults.random_serve_plan,
                                  faults.random_fleet_plan])
def test_random_plan_rejects_an_out_of_range_seed(draw):
    with pytest.raises(ReproError, match="seed"):
        draw(-1)
    with pytest.raises(ReproError, match="seed"):
        draw(1 << 128)


def test_plan_rejects_an_out_of_range_seed():
    with pytest.raises(ReproError, match="seed"):
        faults.FaultPlan(-1, [])


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


# --- every site, through its hook -------------------------------------------

def _ring(site):
    def call(plan):
        frame = bytearray(range(12))
        plan.ring_frame(site, frame)
        return bytes(frame)
    return call


# (site, action, extra rule fields, one hook call returning its observable
# outcome, the transcript line when the second call fires)
SITE_TABLE = [
    ("bus.write", "drop", {}, lambda p: p.bus_write(0x40, b"data"),
     "addr=0x40"),
    ("bus.write", "corrupt", {}, lambda p: p.bus_write(0x40, b"data"),
     "addr=0x40"),
    ("bus.write", "error", {}, lambda p: p.bus_write(0x40, b"data"),
     "addr=0x40"),
    ("bus.read", "corrupt", {}, lambda p: p.bus_read(0x80, b"data"),
     "addr=0x80"),
    ("bus.read", "error", {}, lambda p: p.bus_read(0x80, b"data"),
     "addr=0x80"),
    ("memory.scrub", "skip", {}, lambda p: p.memory_scrub(0x100, 6),
     "addr=0x100 len=6"),
    ("rng.generate", "exhaust", {}, lambda p: p.rng_generate(16),
     "requested=16"),
    ("channel.seal", "corrupt", {},
     lambda p: p.channel_frame("channel.seal", b"frame"), "len=5"),
    ("channel.seal", "drop", {},
     lambda p: p.channel_frame("channel.seal", b"frame"), "len=5"),
    ("channel.open", "corrupt", {},
     lambda p: p.channel_frame("channel.open", b"frame"), "len=5"),
    ("channel.open", "drop", {},
     lambda p: p.channel_frame("channel.open", b"frame"), "len=5"),
    ("lifecycle", "crash", {}, lambda p: p.lifecycle("resume", "active"),
     "event=resume state=active"),
    ("serve.ingress", "corrupt", {}, _ring("serve.ingress"),
     "len=12 byte=3"),
    ("serve.egress", "corrupt", {}, _ring("serve.egress"),
     "len=12 byte=3"),
    ("ring.reserve", "stall", {}, lambda p: p.ring_stall(), "stalled"),
    ("sched.deadline", "skew", {"magnitude": 3.5},
     lambda p: p.scheduler_skew(), "skew_ms=3.5"),
    ("keycache.chunk", "drop", {}, lambda p: p.keycache_chunk(), "dropped"),
    ("worker.invoke", "panic", {}, lambda p: p.worker_invoke(), "panic"),
    ("fleet.rpc", "drop", {}, lambda p: p.fleet_rpc(), "dropped"),
    ("fleet.reply", "drop", {}, lambda p: p.fleet_reply(), "dropped"),
    ("fleet.shard", "crash", {}, lambda p: p.fleet_shard("shard-1"),
     "shard=shard-1"),
    ("journal.append", "torn", {}, lambda p: p.journal_append(b"record"),
     "len=6 cut=2"),
]


def test_site_table_covers_every_site():
    assert {row[0] for row in SITE_TABLE} == set(SITES)


@pytest.mark.parametrize("site, action, fields, call, detail", SITE_TABLE,
                         ids=[f"{row[0]}-{row[1]}" for row in SITE_TABLE])
def test_every_site_fires_once_with_its_transcript_line(site, action, fields,
                                                        call, detail):
    """The second of three operations fires: its effect differs from the
    untouched first and third, and the transcript holds one exact line."""
    plan = faults.FaultPlan(21, [faults.FaultRule(site, action, nth=2,
                                                  **fields)])
    outcomes = []
    with faults.installed(plan):
        for _ in range(3):
            try:
                outcomes.append(call(plan))
            except FaultInjected:
                outcomes.append(FaultInjected)
    assert outcomes[0] == outcomes[2] != outcomes[1]
    assert plan.transcript_lines() == [f"0000 {site} op=2 {action} {detail}"]


def _ring_payload(site):
    def call(plan, payload):
        frame = bytearray(payload)
        plan.ring_frame(site, frame)
        return bytes(frame)
    return call


@pytest.mark.parametrize("site, call", [
    ("bus.write", lambda p, data: p.bus_write(0, data)),
    ("bus.read", lambda p, data: p.bus_read(0, data)),
    ("channel.seal", lambda p, data: p.channel_frame("channel.seal", data)),
    ("channel.open", lambda p, data: p.channel_frame("channel.open", data)),
    ("serve.ingress", _ring_payload("serve.ingress")),
    ("serve.egress", _ring_payload("serve.egress")),
])
def test_corrupt_on_an_empty_payload_is_spent_but_unrecorded(site, call):
    """Nothing to flip: the rule still spends its one fire, so the next
    operation inside its window passes through untouched."""
    plan = faults.FaultPlan(22, [faults.FaultRule(site, "corrupt", nth=1,
                                                  span=2)])
    with faults.installed(plan):
        assert call(plan, b"") == b""
        assert call(plan, b"payload") == b"payload"
    assert plan.events == []


def test_a_one_byte_journal_append_counts_no_operation():
    """A record too short to tear is not an operation at the site."""
    plan = faults.FaultPlan(23, [faults.tear_nth_journal_append(1)])
    with faults.installed(plan):
        assert plan.journal_append(b"x") == b"x"
        torn = plan.journal_append(b"record")
    assert torn == b"record"[:len(torn)] and len(torn) < 6
    assert plan.transcript_lines()[0].startswith("0000 journal.append op=1 ")
