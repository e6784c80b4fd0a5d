"""Fleet-layer chaos schedules: seeded storms over the sharded plane.

The 20-seed sweep runs in CI (`repro-omg chaos --layer fleet`); here a
handful of representative seeds keeps the suite fast while still
asserting the two invariants per schedule — liveness (the storm drains
or fails typed) and safety (cross-shard single-spend after reconcile,
offline-verifiable audit chains, no secrets on durable surfaces) — plus
transcript reproducibility and artifact writing.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.chaos import (
    FleetChaosResult,
    run_fleet_chaos_schedule,
    write_chaos_transcripts,
)
from tests.helpers import pinned_transcript_digests, transcript_digests

FLEET_SEEDS = [0, 2, 7, 11]  # seed 2 exercises a reply-loss duplicate


@pytest.fixture(scope="module")
def fleet_results():
    return {seed: run_fleet_chaos_schedule(seed, devices=120)
            for seed in FLEET_SEEDS}


@pytest.mark.parametrize("seed", FLEET_SEEDS)
def test_schedule_liveness_and_safety(fleet_results, seed):
    result = fleet_results[seed]
    assert result.live, (
        f"seed {seed} violated liveness: {result.error}: "
        f"{result.error_message}")
    assert result.safe, (
        f"seed {seed} violated safety: {result.safety_violations}")


def test_schedules_account_for_every_device(fleet_results):
    for result in fleet_results.values():
        assert (result.granted + result.rejected + result.refused
                + result.stalled == result.devices)
        assert sum(counters["live"]
                   for counters in result.journals.values()) <= result.devices
        assert set(result.audit_heads) == set(result.journals)


def test_seed_set_exercises_the_fault_machinery(fleet_results):
    results = fleet_results.values()
    assert sum(r.completed for r in results) >= len(FLEET_SEEDS) // 2
    assert any(r.fault_lines for r in results)
    assert any(r.crashes > 0 or r.drops > 0 for r in results)


def test_same_seed_reproduces_the_schedule(fleet_results):
    seed = FLEET_SEEDS[1]
    rerun = run_fleet_chaos_schedule(seed, devices=120)
    reference = fleet_results[seed]
    assert rerun.fault_lines == reference.fault_lines
    assert rerun.granted == reference.granted
    assert rerun.duplicates_reconciled == reference.duplicates_reconciled
    assert rerun.audit_heads == reference.audit_heads


def test_transcripts_match_pinned_digests(fleet_results):
    """Every seed's transcript is byte-identical to the committed
    one: a refactor of the fault machinery must not move a fault,
    a counter or a rule."""
    assert (transcript_digests(fleet_results)
            == pinned_transcript_digests("fleet"))


def test_transcript_artifacts(tmp_path, fleet_results):
    out = write_chaos_transcripts(list(fleet_results.values()),
                                  str(tmp_path / "fleet"))
    summary = json.loads((tmp_path / "fleet" / "summary.json").read_text())
    assert summary["schedules"] == len(FLEET_SEEDS)
    assert summary["liveness_violations"] == []
    assert summary["safety_violations"] == []
    text = (tmp_path / "fleet"
            / f"chaos-seed-{FLEET_SEEDS[0]:04d}.txt").read_text()
    assert "fleet chaos schedule" in text
    assert "journals:" in text and "audit heads:" in text
    assert out.endswith("fleet")


def test_result_properties():
    ok = FleetChaosResult(seed=1, completed=True)
    assert ok.live and ok.safe
    typed = FleetChaosResult(seed=2, error="ChannelTimeout")
    assert typed.live
    untyped = FleetChaosResult(seed=3, error="KeyError", untyped=True)
    assert not untyped.live
    double = FleetChaosResult(
        seed=4, completed=True,
        safety_violations=["device dev-1 live on 2 shards"])
    assert not double.safe


def test_ticket_key_hex_in_audit_records_is_a_safety_violation(monkeypatch):
    """A cohort ticket key written (hex) into one shard's audit records
    must fail the schedule's leak sweep."""
    from repro.fleet import DeviceFleet
    from repro.fleet.audit import AuditChain, AuditRecord

    ticket_keys = []
    build_cohort, seal = DeviceFleet.build_cohort, AuditChain.seal

    def recording_build_cohort(self, tenant, cohort_id, count):
        cohort = build_cohort(self, tenant, cohort_id, count)
        ticket_keys.append(self.tenants[tenant].cohorts[cohort_id].ticket_key)
        return cohort

    def leaky_seal(self):
        if self.shard_id == "shard-0" and not any(
                record.kind == "leak" for record in self.records):
            self.records.append(AuditRecord(
                seq=len(self.records), kind="leak",
                detail=(("ticket", ticket_keys[0].hex()),)))
        return seal(self)

    monkeypatch.setattr(DeviceFleet, "build_cohort", recording_build_cohort)
    monkeypatch.setattr(AuditChain, "seal", leaky_seal)
    result = run_fleet_chaos_schedule(FLEET_SEEDS[0], devices=120)
    assert result.completed and not result.safe
    assert any("shard-0" in line and "audit" in line
               for line in result.safety_violations)
