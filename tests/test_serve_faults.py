"""Serving-layer fault injection: tamper-drop, stalls, skew, recovery.

These tests pin the degradation contract the serve chaos harness relies
on: injected frame corruption is dropped and *accounted* (never wedges
a ring or kills a session), ring stalls surface as typed backpressure,
deadline skew is rescued by the watchdog, keystream-cache drops are
correctness-neutral, and a panicked worker is replaced by a freshly
re-attested enclave with its in-flight batch requeued exactly once.
"""

import numpy as np
import pytest

from repro import faults
from repro.errors import ServeError
from repro.sanctuary.lifecycle import EnclaveState
from repro.serve import Rejected, Shed
from repro.serve.frames import HEADER, TAG_BYTES

from .helpers import tiny_stack
from .test_serve import (INTERACTIVE, expected_results, serve_one,
                         tiny_fingerprints)

pytestmark = pytest.mark.serve


def drive(loop, rounds=6, force=True):
    for _ in range(rounds):
        loop.tick(force=force)
        loop.clock.advance_ms(1.0)


# --- frame corruption: tamper-drop, accounted, never wedged --------------

def test_ingress_bit_flip_drops_and_accounts():
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    fingerprints = tiny_fingerprints(3)
    plan = faults.FaultPlan(seed=3, rules=[
        faults.corrupt_nth_ring_frame(2, "ingress")])
    with faults.installed(plan):
        seqs = [service.submit(handle, fp) for fp in fingerprints]
        drive(loop)
    assert len(plan.transcript_lines()) == 1
    stats = service.stats()
    assert stats.auth_failures == 1
    # The corrupted frame's seq is the one missing; the others came back.
    done = set(handle.results)
    assert len(done) == 2 and set(seqs) - done
    # Session and ring stay usable: the same payload resubmitted works.
    missing = (set(seqs) - done).pop()
    index = seqs.index(missing)
    seq2 = service.submit(handle, fingerprints[index])
    drive(loop)
    label, _ = handle.take_result(seq2)
    assert label == expected_results(fingerprints)[index][0]
    service.teardown()


def test_egress_bit_flip_drops_and_accounts():
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    fingerprints = tiny_fingerprints(3)
    plan = faults.FaultPlan(seed=9, rules=[
        faults.corrupt_nth_ring_frame(2, "egress")])
    with faults.installed(plan):
        seqs = [service.submit(handle, fp) for fp in fingerprints]
        drive(loop)
    assert len(plan.transcript_lines()) == 1
    stats = service.stats()
    # A header flip lands in frames_dropped, a body/tag flip in
    # auth_failures — exactly one of the two, and exactly one seq lost.
    assert stats.auth_failures + stats.frames_dropped == 1
    assert len(set(seqs) - set(handle.results)) == 1
    service.teardown()


def test_corrupted_frames_never_complete_with_wrong_payload():
    """Tamper-drop, not tamper-accept: a flipped frame must never be
    delivered as a (wrong) result."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    fingerprints = tiny_fingerprints(4)
    expected = expected_results(fingerprints)
    plan = faults.FaultPlan(seed=21, rules=[
        faults.corrupt_nth_ring_frame(1, "ingress"),
        faults.corrupt_nth_ring_frame(3, "egress")])
    with faults.installed(plan):
        seqs = [service.submit(handle, fp) for fp in fingerprints]
        drive(loop)
    for seq, want in zip(seqs, expected):
        if seq in handle.results:
            label, _ = handle.take_result(seq)
            assert label == want[0]
    service.teardown()


@pytest.mark.parametrize("length", range(HEADER.size + TAG_BYTES))
def test_runt_ingress_frame_drops_and_accounts(length):
    """The OS relay cuts an accepted request frame below header + tag
    mid-drive: the frame counts in frames_dropped and its slot is
    released, every later request is served, and the exactly-once
    ledger balances."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE, strict=False)
    fingerprints = tiny_fingerprints(8, seed=17)
    ring = service._ingress_prod
    seqs = []
    for index, fingerprint in enumerate(fingerprints):
        seqs.append(service.submit(handle, fingerprint))
        if index == 3:   # rewrite the frame's length prefix in the ring
            last = (int(ring._ctrl[1]) - 1) % ring.num_slots
            ring._slot(last)[:4].view(np.uint32)[0] = length
        drive(loop, rounds=1)
    drive(loop)
    stats = service.stats()
    assert stats.frames_dropped == 1
    missing = set(seqs) - set(handle.results)
    assert missing == {seqs[3]}
    assert len(missing) == (stats.auth_failures + stats.frames_dropped
                            + stats.responses_dropped
                            + stats.admission_shed)
    for seq, want in zip(seqs[4:], expected_results(fingerprints[4:])):
        label, _ = handle.take_result(seq)
        assert label == want[0]
    service.teardown()


# --- ring stalls: typed shed in graceful mode, raise in strict -----------

def test_ring_stall_raises_in_strict_mode():
    service, _, (handle,) = tiny_stack(INTERACTIVE)
    plan = faults.FaultPlan(seed=5, rules=[
        faults.stall_nth_ring_reserve(1)])
    with faults.installed(plan):
        with pytest.raises(ServeError, match="ingress ring full"):
            service.submit(handle, tiny_fingerprints(1)[0])
    service.teardown()


def test_ring_stall_sheds_then_retry_succeeds_in_graceful_mode():
    service, loop, (handle,) = tiny_stack(INTERACTIVE, strict=False)
    fingerprint = tiny_fingerprints(1)[0]
    plan = faults.FaultPlan(seed=5, rules=[
        faults.stall_nth_ring_reserve(1, span=2)])
    with faults.installed(plan):
        verdicts = [service.submit(handle, fingerprint) for _ in range(3)]
        drive(loop)
    sheds = [v for v in verdicts if isinstance(v, Shed)]
    seqs = [v for v in verdicts if not isinstance(v, Shed)]
    assert len(sheds) == 2 and sheds[0].session_id == handle.session_id
    assert "ingress ring full" in sheds[0].reason
    assert service.stats().requests_shed == 2
    # The slot is reserved before a seq is drawn: the two shed submits
    # consumed none, so the one that landed holds seq 0.
    assert seqs == [0] and handle.next_seq == 1
    label, _ = handle.take_result(seqs[0])
    assert label == expected_results([fingerprint])[0][0]
    service.teardown()


def test_session_capacity_rejected_in_graceful_mode():
    service, loop, (first,) = tiny_stack(INTERACTIVE, strict=False,
                                         session_capacity=1)
    verdict = service.open_session()
    assert isinstance(verdict, Rejected)
    assert "session capacity" in verdict.reason
    assert service.stats().requests_shed == 1
    assert service.stats().open_sessions == 1
    # The admitted session still serves.
    fingerprint = tiny_fingerprints(1)[0]
    label, _ = serve_one(loop, first, fingerprint)
    assert label == expected_results([fingerprint])[0][0]
    service.teardown()


# --- deadline skew: the watchdog rescues stuck batches -------------------

def test_scheduler_skew_delays_but_watchdog_flushes():
    # Fixed batch size: the adaptive batcher would shrink the target to
    # 1 and run the request as a full batch before the watchdog matters.
    service, loop, (handle,) = tiny_stack(
        INTERACTIVE, deadline_ms=2.0, watchdog_ms=6.0,
        loop_options={"adaptive": False})
    fingerprint = tiny_fingerprints(1)[0]
    plan = faults.FaultPlan(seed=2, rules=[
        faults.skew_nth_deadline(1, skew_ms=1000.0, span=64)])
    with faults.installed(plan):
        seq = service.submit(handle, fingerprint)
        # Age the request far past the batching deadline; the skew rule
        # keeps ready() false, so only the watchdog can flush it.
        for _ in range(8):
            service.clock.advance_ms(1.0)
            loop.tick()    # no force
    assert plan.transcript_lines()   # the skew rule actually fired
    assert service.stats().watchdog_flushes >= 1
    label, _ = handle.take_result(seq)
    assert label == expected_results([fingerprint])[0][0]
    service.teardown()


# --- keystream-cache drops are correctness-neutral -----------------------

def test_keystream_chunk_drop_is_transparent():
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    fingerprints = tiny_fingerprints(4, seed=11)
    expected = expected_results(fingerprints)
    plan = faults.FaultPlan(seed=8, rules=[
        faults.drop_nth_keystream_chunk(2, max_fires=3)])
    with faults.installed(plan):
        seqs = [service.submit(handle, fp) for fp in fingerprints]
        drive(loop)
    assert plan.transcript_lines()   # chunks really were dropped
    for seq, want in zip(seqs, expected):
        label, _ = handle.take_result(seq)
        assert label == want[0]
    stats = service.stats()
    assert stats.auth_failures == 0 and stats.requests_completed == 4
    service.teardown()


# --- worker panic: re-attested restart, batch requeued exactly once ------

def test_worker_panic_recovers_and_requeues_exactly_once():
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    vendor = service.pool._vendor
    fingerprints = tiny_fingerprints(5, seed=3)
    expected = expected_results(fingerprints)
    before = [worker.session for worker in service.pool.workers]
    cores_before = [worker.core_id for worker in service.pool.workers]
    plan = faults.FaultPlan(seed=4, rules=[
        faults.panic_nth_worker_invoke(1)])
    with faults.installed(plan):
        seqs = [service.submit(handle, fp) for fp in fingerprints]
        drive(loop)
    stats = service.stats()
    assert stats.workers_restarted == 1
    assert stats.batches_requeued == 1
    # Exactly once: every accepted request delivered, none duplicated.
    assert stats.requests_completed == len(seqs)
    for seq, want in zip(seqs, expected):
        label, _ = handle.take_result(seq)
        assert label == want[0]
    # One session was replaced; the dead one is scrubbed and torn down,
    # the replacement is live, attested, and pinned to the same core.
    after = [worker.session for worker in service.pool.workers]
    replaced = [(slot, old, new) for slot, (old, new)
                in enumerate(zip(before, after)) if old is not new]
    assert len(replaced) == 1
    slot, old, new = replaced[0]
    assert old.instance.state is EnclaveState.TORN_DOWN
    assert new.instance.state is EnclaveState.ACTIVE
    # Panic unbinds the dead enclave's core; the replacement is pinned
    # to the same core the slot had before the crash.
    assert new.instance.core_id == cores_before[slot]
    assert service.pool.workers[slot].core_id == cores_before[slot]
    assert vendor.license_state(new.instance.instance_name).key_requests == 1
    service.teardown()


def test_worker_crash_loop_surfaces_typed_error():
    service, loop, (handle,) = tiny_stack(INTERACTIVE,
                                          max_worker_restarts=0)
    plan = faults.FaultPlan(seed=6, rules=[
        faults.panic_nth_worker_invoke(1)])
    with faults.installed(plan):
        service.submit(handle, tiny_fingerprints(1)[0])
        with pytest.raises(ServeError, match="crash-loop"):
            drive(loop)
    service.teardown()


def test_pool_teardown_tolerates_panicked_worker():
    service, _, _ = tiny_stack()
    # Panic one worker directly (scrub + unlock) and never restart it;
    # teardown must skip it instead of raising on the torn-down enclave.
    service.pool.workers[0].session.instance.panic()
    assert (service.pool.workers[0].session.instance.state
            is EnclaveState.TORN_DOWN)
    service.teardown()
    for worker in service.pool.workers:
        assert worker.session.instance.state is EnclaveState.TORN_DOWN
