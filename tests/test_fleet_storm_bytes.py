"""The fleet storm's durable bytes, pinned.

The chaos digests carry journal counters and audit heads, but not the
journal media, and shard and device call the same HMAC helpers, so a
storm's ``correct`` flag cannot see a drift in either.  These pins hash
every shard's journal medium, every audit head and the
:class:`~repro.fleet.StormReport` of one small seeded storm with a torn
append, a shard crash, dropped requests and replies, and the reconcile
revokes those replies leave behind.

The journal compacts in two ways: when only grants of new devices
followed the last snapshot it appends their records to it, otherwise
it re-encodes the live state.  Both must give the same snapshot bytes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.faults import (
    FaultPlan,
    crash_nth_shard_op,
    drop_nth_fleet_reply,
    drop_nth_fleet_rpc,
    installed,
    tear_nth_journal_append,
)
from repro.errors import FaultInjected
from repro.fleet import DeviceFleet, FleetDirector
from repro.fleet.audit import AuditChain
from repro.fleet.journal import LicenseJournal
from repro.hw.timing import VirtualClock

KEY_BITS = 768

# sha256 of each shard's journal.media_bytes() right after the storm
# (its shards restarted), then after reconcile and a compaction of every
# shard; of each audit head at the end; and of repr(StormReport).
_STORM_MEDIA = {
    "shard-0": "e8b75d7bef14974f4cf3bac8f2dcac85edbe90f099aa48ca14f0f209b9b49c93",
    "shard-1": "58e9f0fd4607fe6627b19b68feda81e85e5595efd3f82b135596e67ea53695a1",
    "shard-2": "a427494c579b8f48783dbb79707429be3f77fc45fcade170a72dbcab4caf37f9",
}
_RECONCILED_MEDIA = {
    "shard-0": "29efcad30b32c455e54bae2ee353a93547f6025890e410affd9b26313ec98c7f",
    "shard-1": "500c98df32f8191156c902560ff01d5b752ea2258d1637621ba356af34b6426d",
    "shard-2": "a831edd4627f28801309d3b83370b7152ce6834dd24f2e52371e2d966ac81767",
}
_AUDIT_HEADS = {
    "shard-0": "0295583e01cf72981356d5c90e820ebda7c766e4fd311295591e6c22b1f847f7",
    "shard-1": "73824753097419151186aa272b890a3040ca850b602962fdef36dd970101bf04",
    "shard-2": "6000e1e9bb75e7f68c39c7cac6549d3bef44091e0867fdeae784d71bb14fc21e",
}
_REPORT_SHA256 = (
    "8fab45c50206176b93e0e070787dcfbd180c49dff3f3b72080cbce4ddfcc3c84")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _media(director) -> dict[str, str]:
    return {shard_id: _sha(shard.journal.media_bytes())
            for shard_id, shard in director.shards.items()}


def _storm():
    clock = VirtualClock()
    fleet = DeviceFleet(clock, key_bits=KEY_BITS, seed=b"storm-bytes")
    for tenant in fleet.tenants:
        for index in range(2):
            fleet.build_cohort(tenant, f"{tenant}-c{index}", 50)
    director = FleetDirector(
        clock, [f"shard-{i}" for i in range(3)], fleet.tenants)
    plan = FaultPlan(7, [
        drop_nth_fleet_rpc(30, span=4),
        drop_nth_fleet_reply(60, span=8),
        crash_nth_shard_op(65),
        tear_nth_journal_append(150),
    ])
    with installed(plan):
        report = director.run_storm(fleet.cohorts, storm_seconds=0.5,
                                    compact_lag=16)
    for shard in director.shards.values():
        if not shard.up:
            shard.restart()
    return director, report, plan


@pytest.fixture(scope="module")
def storm():
    director, report, plan = _storm()
    storm_media = _media(director)
    revoked = director.reconcile()
    for shard in director.shards.values():
        shard.journal.compact()
    return {
        "director": director, "report": report, "plan": plan,
        "storm_media": storm_media, "revoked": revoked,
        "reconciled_media": _media(director),
        "heads": {shard_id: head.hex() for shard_id, head
                  in director.verify_audits().items()},
    }


def test_storm_exercises_every_fault_it_pins(storm):
    report, plan, director = storm["report"], storm["plan"], storm["director"]
    assert plan.fired("journal.append") == 1
    assert plan.fired("fleet.shard") == 1
    assert plan.fired("fleet.reply") == 8
    assert report.crashes == 2
    assert storm["revoked"] == 3
    assert report.granted == 200 and report.stalled == 0
    assert sum(s.journal.torn_drops for s in director.shards.values()) == 1
    assert all(s.journal.compactions > 1 for s in director.shards.values())


def test_storm_journal_media_are_pinned(storm):
    assert storm["storm_media"] == _STORM_MEDIA
    assert storm["reconciled_media"] == _RECONCILED_MEDIA


def test_storm_audit_heads_and_report_are_pinned(storm):
    assert storm["heads"] == _AUDIT_HEADS
    assert _sha(repr(storm["report"]).encode()) == _REPORT_SHA256


# --- the two compaction paths ----------------------------------------------

def _reencoded(journal: LicenseJournal) -> bytes:
    """The snapshot ``journal.compact()`` would write by re-encoding its
    live state, computed on a twin so ``journal`` is left as it was."""
    twin = LicenseJournal(journal.shard_id)
    twin._snapshot, twin._media = journal._snapshot, bytearray(journal._media)
    twin.recover()
    twin._tail_appends = False
    twin.compact()
    return twin._snapshot


def test_tail_append_compaction_matches_reencoding():
    journal = LicenseJournal("s0")
    for round_ in range(3):
        for i in range(5):
            journal.grant(f"dev-{round_}-{i}", "tenant-a", f"{i:016x}",
                          "ab" * 32)
        assert journal._tail_appends
        expected = _reencoded(journal)
        journal.compact()
        assert journal._snapshot == expected
        assert journal.recover().live == 5 * (round_ + 1)


def test_compactions_agree_through_random_histories():
    rng = random.Random(4242)
    for _ in range(40):
        journal = LicenseJournal("s0")
        devices = [f"dev-{i}" for i in range(12)]
        for step in range(60):
            op = rng.random()
            device = rng.choice(devices)
            if op < 0.55:
                if device not in journal.live:
                    journal.grant(device, "tenant-a", f"{step:016x}",
                                  f"{step:064x}")
            elif op < 0.65:
                journal.revoke(device, "test")
            elif op < 0.72:
                journal.release(device)
            elif op < 0.82:
                journal.drop_memory()
                journal.recover()
            else:
                expected = _reencoded(journal)
                journal.compact()
                assert journal._snapshot == expected


def test_torn_append_reencodes_and_recovery_restores_tail_appends():
    journal = LicenseJournal("s0")
    journal.grant("dev-0", "tenant-a", "00" * 8, "ab" * 32)
    with installed(FaultPlan(3, [tear_nth_journal_append(1)])):
        with pytest.raises(FaultInjected):
            journal.grant("dev-1", "tenant-a", "01" * 8, "ab" * 32)
    assert not journal._tail_appends  # the medium holds a torn prefix
    journal.drop_memory()
    assert journal.recover().torn_bytes_dropped > 0
    assert journal._tail_appends
    expected = _reencoded(journal)
    journal.compact()
    assert journal._snapshot == expected


def test_recovery_refuses_tail_append_over_a_granted_device():
    """A grant appended while the live state was dropped may name a
    device the snapshot already holds; compaction must re-encode."""
    journal = LicenseJournal("s0")
    journal.grant("dev-0", "tenant-a", "00" * 8, "ab" * 32)
    journal.compact()
    journal.drop_memory()
    journal.grant("dev-0", "tenant-a", "11" * 8, "cd" * 32)
    journal.recover()
    assert not journal._tail_appends
    expected = _reencoded(journal)
    journal.compact()
    assert journal._snapshot == expected
    assert journal.recover().live == 1


def test_recovery_refuses_tail_append_over_out_of_order_lsns():
    """Recovery trusts only what the medium proves: a tail whose records
    are not in lsn order (each one whole and CRC-checked) re-encodes."""
    journal = LicenseJournal("s0")
    journal.grant("dev-0", "tenant-a", "00" * 8, "ab" * 32)
    first = journal.media_bytes()
    journal.grant("dev-1", "tenant-a", "11" * 8, "cd" * 32)
    second = journal.media_bytes()[len(first):]
    swapped = LicenseJournal("s0")
    swapped._media = bytearray(second + first)
    assert swapped.recover().live == 2
    assert not swapped._tail_appends
    expected = _reencoded(swapped)
    swapped.compact()
    assert swapped._snapshot == expected


# --- the records are immutable ---------------------------------------------

def test_every_fleet_record_type_refuses_assignment():
    clock = VirtualClock()
    fleet = DeviceFleet(clock, tenants=("tenant-a",), key_bits=KEY_BITS,
                        seed=b"storm-bytes")
    cohort = fleet.build_cohort("tenant-a", "tenant-a-c0", 1)
    shard = FleetDirector(clock, ["shard-0"], fleet.tenants).shards["shard-0"]
    leg = cohort.leg(0)
    reply = shard.enroll_wave([leg])[0]
    journal = LicenseJournal("s0")
    journal.grant("dev-0", "tenant-a", "00" * 8, "ab" * 32)
    grant = journal.live["dev-0"]
    record = AuditChain("s0").append("grant", device="dev-0")
    for value, field in ((leg, "device"), (reply, "status"),
                         (grant, "lsn"), (record, "seq")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
