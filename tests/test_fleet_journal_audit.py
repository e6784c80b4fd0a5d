"""Durable license journal and hash-chained audit trail."""

from __future__ import annotations

import pytest

from repro.errors import FaultInjected, LicenseError, ProtocolError
from repro.faults import FaultPlan, installed, tear_nth_journal_append
from repro.fleet.audit import GENESIS, AuditChain
from repro.fleet.journal import LicenseJournal


def _grant(journal, device, nonce="aa" * 8, digest="bb" * 32):
    return journal.grant(device, "tenant-a", nonce, digest)


# --- journal ---------------------------------------------------------------

def test_grant_then_replay_is_idempotent():
    journal = LicenseJournal("s0")
    assert _grant(journal, "dev-1") == "granted"
    assert _grant(journal, "dev-1") == "replay"
    assert journal.appends == 1
    assert journal.replays == 1
    assert list(journal.live) == ["dev-1"]


def test_double_spend_with_different_nonce_is_refused():
    journal = LicenseJournal("s0")
    _grant(journal, "dev-1", nonce="aa" * 8)
    with pytest.raises(LicenseError):
        _grant(journal, "dev-1", nonce="cc" * 8)
    assert journal.live["dev-1"].nonce_hex == "aa" * 8


def test_revoke_and_release_clear_live_state():
    journal = LicenseJournal("s0")
    _grant(journal, "dev-1")
    _grant(journal, "dev-2")
    assert journal.revoke("dev-1", "reconcile-stale-duplicate")
    assert journal.release("dev-2")
    assert not journal.revoke("dev-ghost", "no-op")
    assert journal.live == {}
    # A re-grant after release is a fresh license, not a double spend.
    assert _grant(journal, "dev-2", nonce="dd" * 8) == "granted"


def test_recover_rebuilds_state_and_is_idempotent():
    journal = LicenseJournal("s0")
    for index in range(10):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    journal.revoke("dev-3", "tenant-revocation")
    snapshot_live = dict(journal.live)
    journal.live = {}  # the crash: in-memory state gone
    report = journal.recover()
    assert report.replayed == 11
    assert report.torn_bytes_dropped == 0
    assert journal.live == snapshot_live
    again = journal.recover()
    assert again.live == report.live
    assert journal.live == snapshot_live


def test_torn_append_raises_and_recovery_drops_the_tail():
    journal = LicenseJournal("s0")
    _grant(journal, "dev-0")
    with installed(FaultPlan(7, [tear_nth_journal_append(1)])):
        with pytest.raises(FaultInjected):
            _grant(journal, "dev-1", nonce="ee" * 8)
    # The torn record left partial bytes on the medium; recovery must
    # drop them and keep only the acknowledged grant.
    report = journal.recover()
    assert report.torn_bytes_dropped > 0
    assert journal.torn_drops == 1
    assert list(journal.live) == ["dev-0"]
    # The unacknowledged grant retries cleanly after recovery.
    assert _grant(journal, "dev-1", nonce="ee" * 8) == "granted"


def test_mid_log_corruption_fails_closed():
    """A bad CRC before the last record is corruption, not a torn tail:
    recovery must raise instead of dropping later acknowledged grants."""
    journal = LicenseJournal("s0")
    for index in range(3):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    record = len(journal._media) // 3     # equal-length records
    journal._media[record + record // 2] ^= 0x01   # second record's body
    before = bytes(journal._media)
    with pytest.raises(ProtocolError, match="CRC mismatch"):
        journal.recover()
    assert bytes(journal._media) == before
    assert list(journal.live) == ["dev-0", "dev-1", "dev-2"]


def _ten_grants():
    journal = LicenseJournal("s0")
    for index in range(10):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    return journal


def test_any_header_bit_flip_before_the_last_record_fails_closed():
    """Every single-bit flip of the headers of records 0-8 of a 10-grant
    journal (magic, kind, lsn and length: 9 x 8 bytes x 8 bits) must
    raise, never recover with acknowledged grants silently dropped."""
    from repro.fleet.journal import _HEADER

    media = bytes(_ten_grants()._media)
    record = len(media) // 10            # equal-length records
    flips = [(index * record + byte, bit) for index in range(9)
             for byte in range(_HEADER.size) for bit in range(8)]
    assert len(flips) == 576
    for position, bit in flips:
        journal = _ten_grants()
        journal._media[position] ^= 1 << bit
        before = bytes(journal._media)
        with pytest.raises(ProtocolError):
            journal.recover()
        assert bytes(journal._media) == before, (position, bit)


def test_every_tear_of_the_last_record_recovers_as_a_torn_tail():
    media = bytes(_ten_grants()._media)
    record = len(media) // 10
    for cut in range(1, record):
        journal = _ten_grants()
        del journal._media[len(media) - record + cut:]
        report = journal.recover()
        assert report.torn_bytes_dropped == cut, cut
        assert sorted(journal.live) == [f"dev-{i}" for i in range(9)]


def test_compact_bounds_replay_and_preserves_state():
    journal = LicenseJournal("s0")
    for index in range(20):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    journal.revoke("dev-7", "x")
    assert journal.lag == 21
    journal.compact()
    assert journal.lag == 0
    assert journal.compactions == 1
    before = dict(journal.live)
    lsn = journal.lsn
    journal.live = {}
    journal.recover()
    assert journal.live == before
    assert journal.lsn == lsn  # LSNs survive the snapshot


def test_compact_refuses_state_dropped_by_a_crash():
    """Compacting between a crash and recovery would snapshot an empty
    live map over acknowledged grants; it must raise instead."""
    journal = LicenseJournal("s0")
    for index in range(3):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    journal.drop_memory()
    with pytest.raises(ProtocolError, match="recover"):
        journal.compact()
    assert journal.compactions == 0
    assert journal.recover().live == 3
    journal.compact()
    journal.drop_memory()
    assert journal.recover().live == 3


def _compacted(grants):
    journal = LicenseJournal("s0")
    for index in range(grants):
        _grant(journal, f"dev-{index}", nonce=f"{index:02d}" * 8)
    journal.compact()
    return journal


@pytest.mark.parametrize("grants", [1, 5])
def test_every_cut_of_a_snapshot_fails_closed(grants):
    """A snapshot is written whole and never tears: cutting 1 to len-1
    bytes off it (record boundaries and the header included) must
    raise, never recover with compacted grants silently lost."""
    snapshot = _compacted(grants)._snapshot
    for cut in range(1, len(snapshot)):
        journal = _compacted(grants)
        journal._snapshot = snapshot[:-cut]
        with pytest.raises(ProtocolError, match="snapshot"):
            journal.recover()
        assert len(journal.live) == grants, cut


def test_corrupted_magic_is_a_typed_protocol_error():
    journal = LicenseJournal("s0")
    _grant(journal, "dev-0")
    journal._media[0] ^= 0xFF
    with pytest.raises(ProtocolError):
        journal.recover()


# --- audit chain -----------------------------------------------------------

def _fill(chain, count, kind="grant"):
    for index in range(count):
        chain.append(kind, device=f"dev-{index}", nonce="aa" * 8)


def test_append_seal_verify_roundtrip():
    chain = AuditChain("s0", segment_records=8)
    _fill(chain, 20)
    head = chain.seal()
    assert head != GENESIS
    assert chain.verify() == head
    assert chain.seal() == head  # nothing pending: head is stable


def test_partial_segments_verify():
    # Seals at arbitrary times create short segments; the recorded
    # bounds (not a fixed stride) must drive verification.
    chain = AuditChain("s0", segment_records=8)
    for chunk in (3, 8, 1, 13, 2):
        _fill(chain, chunk)
        chain.seal()
    assert chain.verify() == chain.head
    assert len(chain) == 27


def test_tampered_record_breaks_the_chain():
    chain = AuditChain("s0", segment_records=8)
    _fill(chain, 20)
    chain.seal()
    tampered = list(chain.records)
    victim = tampered[5]
    tampered[5] = type(victim)(seq=victim.seq, kind=victim.kind,
                               detail=(("device", "dev-evil"),) +
                               victim.detail[1:])
    with pytest.raises(ProtocolError):
        chain.verify(tampered)


def test_truncated_history_breaks_the_chain():
    chain = AuditChain("s0", segment_records=4)
    _fill(chain, 12)
    chain.seal()
    with pytest.raises(ProtocolError):
        chain.verify(chain.records[:8])


def test_reordered_records_break_the_chain():
    chain = AuditChain("s0", segment_records=4)
    _fill(chain, 8)
    chain.seal()
    swapped = list(chain.records)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    with pytest.raises(ProtocolError):
        chain.verify(swapped)


def test_appends_after_seal_extend_the_chain():
    chain = AuditChain("s0", segment_records=4)
    _fill(chain, 4)
    first = chain.seal()
    _fill(chain, 4, kind="revoke")
    second = chain.seal()
    assert second != first
    assert chain.verify() == second


def test_secret_bytes_are_redacted_at_append_time():
    chain = AuditChain("s0")
    secret = b"\xde\xad\xbe\xef" * 8
    record = chain.append("grant", device="dev-0", key=secret)
    encoded = record.encode()
    assert secret not in encoded
    assert secret.hex().encode() not in encoded
    assert b"bytes:32" in encoded  # the redact() summary, not the value
