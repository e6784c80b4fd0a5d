"""The async serving core: reactor, mailboxes, admission, adaptivity.

These tests pin the event loop's contract: bit-exact results through
the batched client mux, per-class admission with accounted drops, the
exactly-once ledger under sustained overload with shed/requeue/watchdog
interleavings, bounded interactive latency while the batch class is
saturated, and true-oldest age tracking in the scheduler heap.
"""

import numpy as np
import pytest

from repro import faults
from repro.errors import ServeError
from repro.hw.timing import VirtualClock
from repro.serve import (
    AdaptiveBatcher,
    AdmissionController,
    AdmissionPolicy,
    BatchScheduler,
    Mailbox,
    Priority,
    ServingLoop,
    Shed,
)

from .test_serve import expected_results, make_stack, tiny_fingerprints

pytestmark = pytest.mark.serve


def loop_drive(loop, rounds=8, force=True, step_ms=1.0):
    for _ in range(rounds):
        loop.tick(force=force)
        loop.clock.advance_ms(step_ms)


# --- scheduler age heap --------------------------------------------------

def test_oldest_wait_sees_behind_a_requeued_front():
    """requeue() re-stamps at now and pushes to the *front*; the age
    index must still answer for the older request sitting behind it."""
    clock = VirtualClock()
    scheduler = BatchScheduler(clock, max_batch=2, deadline_ms=50.0)
    scheduler.submit("old")
    clock.advance_ms(10.0)
    scheduler.submit("newer")
    batch = scheduler.flush(1)          # pop "old"
    assert batch == ["old"]
    clock.advance_ms(5.0)
    scheduler.requeue(batch)            # front again, stamped at now
    # Queue order: ["old"(restamped t=15), "newer"(t=10)].  The front
    # peek the old implementation used would report age 0; the true
    # oldest is "newer" at age 5.
    assert scheduler.oldest_wait_ms() == pytest.approx(5.0)
    clock.advance_ms(50.0)
    assert scheduler.ready()            # deadline fires on the true oldest
    assert scheduler.next_batch() == ["old", "newer"]
    assert scheduler.oldest_wait_ms() == 0.0
    assert len(scheduler) == 0


def test_age_heap_tracks_across_interleaved_takes():
    clock = VirtualClock()
    scheduler = BatchScheduler(clock, max_batch=3, deadline_ms=10.0)
    for name in ("a", "b", "c"):
        scheduler.submit(name)
        clock.advance_ms(1.0)
    assert scheduler.oldest_wait_ms() == pytest.approx(3.0)
    assert scheduler.next_batch() == ["a", "b", "c"]
    assert scheduler.oldest_wait_ms() == 0.0
    scheduler.submit("d")
    clock.advance_ms(2.0)
    assert scheduler.oldest_wait_ms() == pytest.approx(2.0)


# --- adaptive batcher ----------------------------------------------------

def test_adaptive_batcher_grows_under_load_and_shrinks_when_idle():
    batcher = AdaptiveBatcher(max_batch=16, min_batch=1)
    assert batcher.target == 16
    # Light load: shrink toward the floor, one halving per update.
    for expected in (8, 4, 2, 1, 1):
        assert batcher.update(0) == expected
    assert batcher.target == 1
    # Sustained backlog: grow toward the cap.
    for expected in (2, 4, 8, 16, 16):
        assert batcher.update(64) == expected
    assert batcher.grows == 4 and batcher.shrinks == 4


def test_adaptive_batcher_holds_in_the_hysteresis_band():
    batcher = AdaptiveBatcher(max_batch=16)
    batcher.update(0)                    # 16 -> 8
    assert batcher.target == 8
    # Depth between target//2 and 2*target: no oscillation.
    for depth in (5, 8, 12, 15):
        assert batcher.update(depth) == 8


def test_adaptive_batcher_validates_bounds():
    with pytest.raises(ServeError):
        AdaptiveBatcher(max_batch=4, min_batch=8)
    with pytest.raises(ServeError):
        AdaptiveBatcher(max_batch=4, min_batch=0)


# --- mailboxes and admission --------------------------------------------

def test_mailbox_capacity_and_fifo():
    box = Mailbox(capacity=2)
    box.post("q", ["a"])
    box.post("q", ["b", "c"])
    assert box.full and len(box) == 2 and box.depth() == 3
    assert box.peek_size() == 1
    with pytest.raises(ServeError):
        box.post("q", ["d"])
    assert box.take() == ("q", ["a"])
    assert not box.full and box.depth() == 2


def test_admission_budget_enforced_per_class():
    controller = AdmissionController(AdmissionPolicy(batch_budget=2))
    assert controller.admit(Priority.BATCH, 0)
    assert controller.admit(Priority.BATCH, 1)
    assert not controller.admit(Priority.BATCH, 2)
    # The interactive class is unbounded under this policy.
    assert controller.admit(Priority.INTERACTIVE, 10_000)
    assert controller.admitted[Priority.BATCH] == 2
    assert controller.shed[Priority.BATCH] == 1
    assert controller.admitted[Priority.INTERACTIVE] == 1


def test_admission_policy_validates_budgets():
    with pytest.raises(ServeError):
        AdmissionPolicy(interactive_budget=0)


# --- loop end-to-end -----------------------------------------------------

def test_loop_results_bit_exact_and_exactly_once():
    platform, vendor, service, model = make_stack(strict=False)
    loop = ServingLoop(service)
    interactive = service.open_session(priority=Priority.INTERACTIVE)
    batch_class = service.open_session(priority=Priority.BATCH)
    fingerprints = tiny_fingerprints(12)
    pairs = [((interactive, batch_class)[i % 2], fp)
             for i, fp in enumerate(fingerprints)]
    verdicts = service.submit_many(pairs)
    assert all(isinstance(v, int) for v in verdicts)
    loop.run_until_idle()
    expected = expected_results(model, fingerprints)
    for i, ((handle, _), seq) in enumerate(zip(pairs, verdicts)):
        label, scores = handle.take_result(seq)
        assert label == expected[i][0]
        assert np.array_equal(scores, expected[i][1])
    stats = service.stats()
    assert stats.requests_completed == 12
    assert stats.queue_depth == 0
    assert stats.batches > 0
    assert stats.p99_ms >= stats.p95_ms >= stats.p50_ms > 0
    service.teardown()


def test_loop_spreads_equal_batches_over_every_worker():
    """Least-loaded selection rotates its tie-break, so equal batches
    one tick apart alternate between the idle workers instead of all
    landing on mailbox 0."""
    platform, vendor, service, model = make_stack(max_batch=2)
    loop = ServingLoop(service, adaptive=False)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(8)
    for start in range(0, 8, 2):
        for fingerprint in fingerprints[start:start + 2]:
            service.submit(handle, fingerprint)
        assert loop.tick(force=True) == 1
    assert [worker.batches for worker in service.pool.workers] == [2, 2]
    assert service.stats().requests_completed == 8
    service.teardown()


def test_submit_many_sheds_past_ring_capacity_without_burning_seqs():
    platform, vendor, service, model = make_stack(strict=False,
                                                  ring_slots=8)
    loop = ServingLoop(service)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(12)
    verdicts = service.submit_many([(handle, fp) for fp in fingerprints])
    accepted = [v for v in verdicts if isinstance(v, int)]
    sheds = [v for v in verdicts if isinstance(v, Shed)]
    assert len(accepted) == 7            # ring capacity is slots - 1
    assert len(sheds) == 5
    # Pre-check sheds consume no sequence numbers: the next submit
    # continues exactly where the accepted prefix left off.
    assert handle.next_seq == 7
    assert service.stats().requests_shed == 5
    loop.run_until_idle()
    retry = service.submit_many(
        [(handle, fingerprints[len(accepted) + i])
         for i in range(len(sheds))])
    assert all(isinstance(v, int) for v in retry)
    loop.run_until_idle()
    assert service.stats().requests_completed == 12
    service.teardown()


def test_submit_many_strict_mode_raises_when_full():
    platform, vendor, service, model = make_stack(ring_slots=4)
    service.open_session()
    handle = service._handles[0]
    with pytest.raises(ServeError, match="ingress ring full"):
        service.submit_many([(handle, fp)
                             for fp in tiny_fingerprints(6)])
    service.teardown()


def test_admission_budget_drops_are_in_the_ledger():
    """A post-accept admission drop consumes the seq: it must show up
    as admission_shed, and the ledger must balance exactly."""
    platform, vendor, service, model = make_stack(strict=False,
                                                  max_batch=4)
    loop = ServingLoop(service, policy=AdmissionPolicy(batch_budget=4))
    handle = service.open_session(priority=Priority.BATCH)
    fingerprints = tiny_fingerprints(16)
    verdicts = service.submit_many([(handle, fp) for fp in fingerprints])
    accepted = [v for v in verdicts if isinstance(v, int)]
    # One tick ingests everything at once; the batch-class queue admits
    # its budget and sheds the rest (typed, accounted, never wedged).
    loop.tick()
    loop.run_until_idle(force=True)
    stats = service.stats()
    assert stats.admission_shed > 0
    missing = len([seq for seq in accepted if seq not in handle.results])
    assert missing == (stats.auth_failures + stats.frames_dropped
                       + stats.responses_dropped + stats.admission_shed)
    assert stats.requests_completed == len(accepted) - missing
    service.teardown()


def test_loop_recovers_worker_panic_with_class_requeue():
    platform, vendor, service, model = make_stack(strict=False)
    loop = ServingLoop(service)
    handle = service.open_session(priority=Priority.INTERACTIVE)
    fingerprints = tiny_fingerprints(6)
    plan = faults.FaultPlan(seed=5, rules=[
        faults.panic_nth_worker_invoke(1)])
    with faults.installed(plan):
        verdicts = service.submit_many([(handle, fp)
                                        for fp in fingerprints])
        loop_drive(loop)
    assert len(plan.transcript_lines()) == 1
    stats = service.stats()
    assert stats.workers_restarted == 1
    assert stats.batches_requeued == 1
    # Exactly once: every accepted request delivered exactly one result.
    assert sorted(handle.results) == sorted(verdicts)
    expected = expected_results(model, fingerprints)
    for i, seq in enumerate(verdicts):
        label, _ = handle.take_result(seq)
        assert label == expected[i][0]
    service.teardown()


def test_loop_watchdog_rescues_skewed_deadline():
    platform, vendor, service, model = make_stack(strict=False,
                                                  max_batch=8,
                                                  deadline_ms=2.0,
                                                  watchdog_ms=10.0)
    # Fixed batch size: otherwise the adaptive batcher shrinks the
    # target to 1 and the request dispatches as a full batch before the
    # watchdog is ever consulted.
    loop = ServingLoop(service, adaptive=False)
    handle = service.open_session()
    seq = service.submit(handle, tiny_fingerprints(1)[0])
    plan = faults.FaultPlan(seed=9, rules=[
        faults.skew_nth_deadline(1, skew_ms=1000.0, span=50)])
    with faults.installed(plan):
        loop_drive(loop, rounds=14, force=False)
    assert service.stats().watchdog_flushes >= 1
    assert seq in handle.results
    service.teardown()


# --- priority inversion regression ---------------------------------------

def test_interactive_p99_bounded_while_batch_class_saturated():
    """The inversion regression: a saturated batch class may not push
    interactive latency past a small multiple of the batch period."""
    platform, vendor, service, model = make_stack(strict=False,
                                                  max_batch=4,
                                                  ring_slots=64,
                                                  session_capacity=8)
    loop = ServingLoop(service, adaptive=False)
    interactive = service.open_session(priority=Priority.INTERACTIVE)
    batch_class = service.open_session(priority=Priority.BATCH)
    fingerprints = tiny_fingerprints(64)
    interactive_latencies = []
    batch_backlog_seen = 0
    step = 0
    # Saturate the batch class (8 new requests per tick against a
    # 2-worker, max_batch=4 budget) while one interactive request is in
    # flight at all times.
    pending_interactive = None
    for round_index in range(24):
        service.submit_many(
            [(batch_class, fingerprints[(step + k) % 64])
             for k in range(8)])
        step += 8
        if pending_interactive is None:
            submitted_at = service.clock.now_ms
            pending_interactive = (
                service.submit(interactive, fingerprints[step % 64]),
                submitted_at)
        loop.tick()
        service.clock.advance_ms(1.0)
        batch_backlog_seen = max(batch_backlog_seen,
                                 len(loop.queues[Priority.BATCH]))
        seq, submitted_at = pending_interactive
        if seq in interactive.results:
            interactive_latencies.append(service.clock.now_ms
                                         - submitted_at)
            interactive.results.pop(seq)
            pending_interactive = None
    assert batch_backlog_seen >= 8       # the batch class really backed up
    assert len(interactive_latencies) >= 5
    # Interactive requests ride the next available tick: their latency
    # stays bounded by a few batch periods even though the batch class
    # holds an unbounded backlog the whole time.
    p99 = float(np.percentile(interactive_latencies, 99))
    batch_period_ms = max(
        service.latency_percentiles()["p50_ms"], 1.0)
    assert p99 <= 4.0 * batch_period_ms, (
        p99, batch_period_ms, interactive_latencies)
    service.teardown()


# --- sustained-overload soak: the exactly-once ledger --------------------

def test_soak_exactly_once_ledger_under_shed_requeue_watchdog():
    """Sustained overload against a tiny ring with panics and deadline
    skew firing: every accepted seq ends as exactly one delivered
    response or exactly one counted loss — across shed retries, class
    requeues, and watchdog flushes on the async core."""
    platform, vendor, service, model = make_stack(
        strict=False, max_batch=4, ring_slots=8, deadline_ms=2.0,
        watchdog_ms=8.0, session_capacity=4)
    loop = ServingLoop(service, tick_ms=0.5)
    handles = [
        service.open_session(priority=Priority.INTERACTIVE),
        service.open_session(priority=Priority.BATCH),
        service.open_session(priority=Priority.BATCH),
    ]
    fingerprints = tiny_fingerprints(96, seed=3)
    plan = faults.FaultPlan(seed=41, rules=[
        faults.panic_nth_worker_invoke(3),
        faults.panic_nth_worker_invoke(11),
        faults.skew_nth_deadline(5, skew_ms=100.0, span=8),
        faults.stall_nth_ring_reserve(7),
    ])
    accepted = {h.session_id: set() for h in handles}
    shed = 0
    with faults.installed(plan):
        for index in range(96):
            handle = handles[index % 3]
            verdict = service.submit(handle, fingerprints[index])
            if isinstance(verdict, Shed):
                shed += 1                 # overload: drop on the floor
            else:
                accepted[handle.session_id].add(verdict)
            if index % 2 == 0:
                loop.tick()
                service.clock.advance_ms(0.5)
        loop_drive(loop, rounds=12)
    stats = service.stats()
    assert stats.requests_shed == shed and shed > 0   # overload really bit
    assert stats.workers_restarted >= 1               # panics really fired
    delivered = 0
    missing = 0
    for handle in handles:
        got = set(handle.results)
        want = accepted[handle.session_id]
        assert not got - want, "response for a seq never accepted"
        delivered += len(got & want)
        missing += len(want - got)
    counted = (stats.auth_failures + stats.frames_dropped
               + stats.responses_dropped + stats.admission_shed)
    assert missing == counted, (missing, counted, stats)
    # No duplicate deliveries hiding behind the dict writes.
    assert stats.requests_completed == delivered
    assert stats.queue_depth == 0
    service.teardown()


def test_stats_fold_loop_queue_counters():
    platform, vendor, service, model = make_stack(strict=False)
    loop = ServingLoop(service)
    handle = service.open_session(priority=Priority.BATCH)
    service.submit_many([(handle, fp) for fp in tiny_fingerprints(8)])
    loop.run_until_idle()
    stats = service.stats()
    queue = loop.queues[Priority.BATCH]
    assert queue.batches > 0
    assert stats.batches == queue.batches     # interactive class idle
    assert stats.full_batches == queue.full_batches
    service.teardown()
