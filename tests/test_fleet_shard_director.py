"""Vendor shards and the fleet director: waves, faults, reconcile."""

from __future__ import annotations

import pytest

from repro.crypto.rng import HmacDrbg
from repro.errors import AttestationError, LicenseError
from repro.faults import (
    FaultPlan,
    crash_nth_shard_op,
    drop_nth_fleet_reply,
    drop_nth_fleet_rpc,
    installed,
    tear_nth_journal_append,
)
from repro.fleet import DeviceFleet, FleetDirector
from repro.fleet.population import STATE_DONE
from repro.fleet.shard import xor32
from repro.hw.timing import VirtualClock

KEY_BITS = 768
SEED = b"fleet-shard-tests"


def _small_fleet(devices_per_cohort=8, tenants=("tenant-a",),
                 cohorts=1):
    clock = VirtualClock()
    fleet = DeviceFleet(clock, tenants=tenants, key_bits=KEY_BITS,
                        seed=SEED)
    for tenant in tenants:
        for index in range(cohorts):
            fleet.build_cohort(tenant, f"{tenant}-c{index}",
                               devices_per_cohort)
    return clock, fleet


def _director(clock, fleet, num_shards=2):
    return FleetDirector(
        clock, [f"shard-{i}" for i in range(num_shards)], fleet.tenants)


def _enroll_all(shard, cohort):
    """Drive every cohort device through attest then grant on one shard."""
    indices = list(range(len(cohort)))
    attest = shard.enroll_wave([cohort.leg(i) for i in indices])
    assert all(r.status == "ok" and r.step == "attest" for r in attest)
    for i in indices:
        cohort.state[i] = "grant"
    grant = shard.enroll_wave([cohort.leg(i) for i in indices])
    assert all(r.status == "ok" and r.step == "grant" for r in grant)
    return indices, grant


# --- enroll_wave status matrix ---------------------------------------------

def test_wave_grants_unlock_on_the_device_side():
    clock, fleet = _small_fleet()
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    indices, grant = _enroll_all(shard, cohort)
    assert cohort.complete_grants(indices, grant) == [True] * len(cohort)
    assert cohort.unwrapped == len(cohort)
    assert cohort.unwrap_failures == 0
    assert all(state == STATE_DONE for state in cohort.state)
    assert shard.grants == len(cohort)
    assert sorted(shard.journal.live) == sorted(cohort.names)


def test_bad_ticket_is_rejected_and_audited():
    clock, fleet = _small_fleet(devices_per_cohort=4)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    forged = cohort.leg(0)
    forged = type(forged)(device=forged.device, tenant=forged.tenant,
                          cohort=forged.cohort, step=forged.step,
                          nonce_hex=forged.nonce_hex,
                          ticket_hex="00" * 32)
    replies = shard.enroll_wave([forged, cohort.leg(1)])
    assert replies[0].status == "rejected"
    assert replies[1].status == "ok"
    assert shard.tickets_rejected == 1
    fails = [r for r in shard.audit.records
             if ("verdict", "fail") in r.detail]
    assert len(fails) == 1


def test_unknown_cohort_is_rejected_not_crashed():
    clock, fleet = _small_fleet(devices_per_cohort=2)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    leg = fleet.cohorts[0].leg(0)
    ghost = type(leg)(device=leg.device, tenant=leg.tenant,
                      cohort="no-such-cohort", step=leg.step,
                      nonce_hex=leg.nonce_hex, ticket_hex=leg.ticket_hex)
    assert shard.enroll_wave([ghost])[0].status == "rejected"


@pytest.mark.parametrize("ticket_hex", ["zz" * 32, "abc", "\u00e9" * 64],
                         ids=["non-hex", "odd-length", "non-ascii"])
def test_malformed_ticket_is_rejected_and_audited_not_raised(ticket_hex):
    clock, fleet = _small_fleet(devices_per_cohort=2)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    leg = cohort.leg(0)
    forged = type(leg)(leg.device, leg.tenant, leg.cohort, leg.step,
                       leg.nonce_hex, ticket_hex)
    replies = shard.enroll_wave([forged, cohort.leg(1)])
    assert [r.status for r in replies] == ["rejected", "ok"]
    assert shard.tickets_rejected == 1
    fails = [r for r in shard.audit.records
             if ("verdict", "fail") in r.detail]
    assert len(fails) == 1
    assert ("reason", "bad membership ticket") in fails[0].detail


@pytest.mark.parametrize("field, value, reason", [
    ("tenant", "tenant-zz", "bad membership ticket"),
    ("step", "bogus", "malformed leg"),
    ("nonce_hex", "zz" * 16, "malformed leg")],
    ids=["unserved-tenant", "unknown-step", "non-hex-nonce"])
def test_malformed_leg_is_rejected_beside_an_honest_leg(field, value,
                                                        reason):
    clock, fleet = _small_fleet(devices_per_cohort=2)
    director = _director(clock, fleet, num_shards=2)
    alone, shard = director.shards["shard-0"], director.shards["shard-1"]
    cohort = fleet.cohorts[0]
    cohort.state[:] = ["grant"] * len(cohort)
    bad = cohort.leg(0)._replace(**{field: value})
    honest = cohort.leg(1)
    reference = alone.enroll_wave([honest])
    replies = shard.enroll_wave([bad, honest])
    assert replies[0].status == "rejected"
    assert replies[1] == reference[0]
    assert reference[0].status == "ok"
    assert list(shard.journal.live) == [honest.device]
    fails = [r for r in shard.audit.records
             if ("verdict", "fail") in r.detail]
    assert len(fails) == 1
    assert ("reason", reason) in fails[0].detail


@pytest.mark.parametrize("mac_hex", [
    "tampered", "zz" * 32, "abc", "\u00e9" * 64, "00" * 16],
    ids=["tampered", "non-hex", "odd-length", "non-ascii", "short"])
def test_bad_grant_mac_counts_one_unwrap_failure(mac_hex):
    clock, fleet = _small_fleet(devices_per_cohort=2)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    indices, grant = _enroll_all(shard, cohort)
    good = grant[0]
    if mac_hex == "tampered":
        flipped = "0" if good.mac_hex[0] != "0" else "1"
        mac_hex = flipped + good.mac_hex[1:]
    bad = type(good)(good.device, good.step, good.status, good.wrapped,
                     mac_hex)
    assert cohort.complete_grants(indices, [bad, grant[1]]) == [False, True]
    assert cohort.unwrap_failures == 1
    assert cohort.unwrapped == 1
    assert cohort.state[0] == "grant"


def test_grant_replay_is_idempotent_and_counted_once():
    clock, fleet = _small_fleet(devices_per_cohort=3)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    indices, first = _enroll_all(shard, cohort)
    # Replay the same grant legs (same nonces): journal answers with a
    # replay, replies are byte-identical, and no second grant is issued.
    for i in indices:
        cohort.state[i] = "grant"
    second = shard.enroll_wave([cohort.leg(i) for i in indices])
    assert [(r.wrapped, r.mac_hex) for r in second] == [
        (r.wrapped, r.mac_hex) for r in first]
    assert shard.grants == len(cohort)
    assert shard.journal.replays == len(cohort)


def test_reply_drop_happens_after_the_grant_is_durable():
    clock, fleet = _small_fleet(devices_per_cohort=4)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    indices = list(range(len(cohort)))
    shard.enroll_wave([cohort.leg(i) for i in indices])
    for i in indices:
        cohort.state[i] = "grant"
    # fleet.reply fires after the journal append: the device sees a
    # drop, but the license already exists — the at-least-once hazard.
    with installed(FaultPlan(3, [drop_nth_fleet_reply(1)])):
        replies = shard.enroll_wave([cohort.leg(0)])
    assert replies[0].status == "dropped"
    assert cohort.names[0] in shard.journal.live
    # The retry (same nonce) replays the grant and delivers the key.
    retry = shard.enroll_wave([cohort.leg(0)])
    assert retry[0].status == "ok"
    assert cohort.complete_grants([0], retry) == [True]


def test_crash_mid_wave_answers_down_and_restart_replays():
    clock, fleet = _small_fleet(devices_per_cohort=6)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    indices = list(range(len(cohort)))
    shard.enroll_wave([cohort.leg(i) for i in indices])
    for i in indices:
        cohort.state[i] = "grant"
    with installed(FaultPlan(5, [crash_nth_shard_op(3)])):
        replies = shard.enroll_wave([cohort.leg(i) for i in indices])
    statuses = [r.status for r in replies]
    assert "down" in statuses
    granted_before = [cohort.names[i] for i, r in zip(indices, replies)
                      if r.status == "ok"]
    assert not shard.up
    assert shard.journal.live == {}  # in-memory state gone
    report = shard.restart()
    assert shard.up
    # Journal replay restores exactly the grants that were appended
    # before the crash (write-ahead: the "ok" replies plus possibly the
    # in-flight one whose reply never formed).
    assert set(granted_before) <= set(shard.journal.live)
    assert report.replayed == len(shard.journal.live)
    # Every device not yet granted retries cleanly after restart.
    pending = [i for i, r in zip(indices, replies) if r.status != "ok"]
    retry = shard.enroll_wave([cohort.leg(i) for i in pending])
    assert all(r.status == "ok" for r in retry)


def test_rpc_drop_is_retryable():
    clock, fleet = _small_fleet(devices_per_cohort=3)
    director = _director(clock, fleet, num_shards=1)
    shard = director.shards["shard-0"]
    cohort = fleet.cohorts[0]
    with installed(FaultPlan(9, [drop_nth_fleet_rpc(1)])):
        replies = shard.enroll_wave([cohort.leg(i) for i in range(3)])
    assert replies[0].status == "dropped"
    assert [r.status for r in replies[1:]] == ["ok", "ok"]
    assert shard.enroll_wave([cohort.leg(0)])[0].status == "ok"


def test_cohort_registration_rejects_wrong_tenant():
    _, fleet = _small_fleet(tenants=("tenant-a", "tenant-b"))
    credentials = fleet.tenants["tenant-a"].cohorts["tenant-a-c0"]
    with pytest.raises(AttestationError):
        fleet.tenants["tenant-b"].register_cohort(credentials)


def test_tenant_with_short_content_key_is_a_license_error():
    from repro.fleet.shard import TenantConfig

    with pytest.raises(LicenseError):
        TenantConfig("t", b"\x00" * 32, trusted_root=None,
                     content_key=b"short")


# --- director routing + reconcile ------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_xor32_matches_bytewise_xor(seed):
    rng = HmacDrbg(b"xor32", seed.to_bytes(1, "big"))
    a, b = rng.generate(32), rng.generate(32)
    expected = bytes(x ^ y for x, y in zip(a, b))
    assert xor32(a, b) == expected
    assert xor32(expected, b) == a
    assert xor32(bytes(32), bytes(32)) == bytes(32)
    assert xor32(b"\xff" * 32, bytes(32)) == b"\xff" * 32


def test_route_walks_preference_when_owner_is_down():
    clock, fleet = _small_fleet()
    director = _director(clock, fleet, num_shards=3)
    cohort = fleet.cohorts[0]
    owner = director.route(cohort.positions[0])
    assert owner is director.shards[
        director.ring.owner_at(cohort.positions[0])]
    owner.crash()
    backup = director.route(cohort.positions[0])
    assert backup is not None and backup is not owner and backup.up
    assert director.takeovers == 1
    for shard in director.shards.values():
        shard.crash()
    assert director.route(cohort.positions[0]) is None
    assert director.route_device(cohort.names[0]) is None


def test_reconcile_keeps_ring_preferred_holder():
    clock, fleet = _small_fleet(devices_per_cohort=6)
    director = _director(clock, fleet, num_shards=3)
    cohort = fleet.cohorts[0]
    device, nonce = cohort.names[0], cohort.grant_nonces[0]
    preference = director.ring.preference_at(cohort.positions[0], 3)
    # Failover aftermath by hand: the same device granted on every
    # shard (distinct journals, same license).
    for shard_id in preference:
        director.shards[shard_id].journal.grant(
            device, cohort.tenant, nonce, "cc" * 32)
    assert director.reconcile() == 2
    held = director.live_licenses()
    assert held == {device: preference[0]}
    assert director.reconcile() == 0  # fixed point
    # The revocations are themselves journaled + audited.
    for shard_id in preference[1:]:
        shard = director.shards[shard_id]
        assert device not in shard.journal.live
        assert any(r.kind == "revoke" for r in shard.audit.records)


def test_reshard_add_remaps_minimally_and_remove_restores():
    clock, fleet = _small_fleet(devices_per_cohort=0)
    director = _director(clock, fleet, num_shards=4)
    keys = [f"dev-{i:04d}" for i in range(400)]
    before = {k: director.route_device(k).shard_id for k in keys}
    director.reshard_add("shard-new")
    after = {k: director.route_device(k).shard_id for k in keys}
    moved = {k for k in keys if before[k] != after[k]}
    assert all(after[k] == "shard-new" for k in moved)
    assert len(moved) <= 3 * len(keys) / 5
    removed = director.reshard_remove("shard-new")
    assert removed.shard_id == "shard-new"
    assert {k: director.route_device(k).shard_id for k in keys} == before


# --- the storm driver -------------------------------------------------------

def test_small_storm_drains_and_accounts():
    clock, fleet = _small_fleet(devices_per_cohort=40,
                                tenants=("tenant-a", "tenant-b"),
                                cohorts=2)
    director = _director(clock, fleet, num_shards=3)
    report = director.run_storm(fleet.cohorts, storm_seconds=0.3,
                                max_seconds=30.0)
    assert report.devices == 160
    assert report.granted == 160
    assert report.completed and report.stalled == 0
    assert report.rejected == report.refused == 0
    assert report.journal_records == 160
    assert report.p99_ms >= report.p50_ms > 0.0
    assert report.virtual_seconds > 0.0
    assert clock.now_ms >= report.virtual_seconds * 1000.0
    # Post-storm the control-plane invariants hold with no faults.
    assert director.reconcile() == 0
    assert len(director.live_licenses()) == 160
    heads = director.verify_audits()
    assert set(heads) == set(director.shards)


def test_storm_is_deterministic_for_a_given_fleet_seed():
    def run():
        clock, fleet = _small_fleet(devices_per_cohort=30)
        director = _director(clock, fleet, num_shards=2)
        return director.run_storm(fleet.cohorts, storm_seconds=0.2,
                                  max_seconds=30.0)

    first, second = run(), run()
    assert first == second  # StormReport is a frozen dataclass


def test_storm_never_compacts_a_crashed_shard():
    """A torn append crashes its shard; compacting that shard before it
    restarts would erase every grant it had acknowledged."""
    clock = VirtualClock()
    fleet = DeviceFleet(clock, key_bits=KEY_BITS, seed=b"compact-bug")
    for tenant in fleet.tenants:
        fleet.build_cohort(tenant, f"{tenant}-c0", 400)
    director = _director(clock, fleet, num_shards=4)
    with installed(FaultPlan(1, [tear_nth_journal_append(100)])):
        report = director.run_storm(fleet.cohorts, compact_lag=8)
    assert report.crashes == report.restarts == 1
    assert report.granted == 800 and report.stalled == 0
    assert all(s.journal.compactions > 0 for s in director.shards.values())
    live = sum(len(s.journal.live) for s in director.shards.values())
    assert live == report.granted
