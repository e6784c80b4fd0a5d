"""Multi-session enclave serving: scheduler, worker pool, service, baseline.

These tests pin the serving layer's contract: batches form on size or
virtual-clock deadline, workers are pinned one-per-big-core and fail
closed, results are bit-exact against direct classification, sessions
are cryptographically isolated, and steady-state traffic never touches
the vendor again after pool construction.
"""

import numpy as np
import pytest

from repro.core.parties import Vendor
from repro.errors import ServeError
from repro.hw.timing import VirtualClock
from repro.sanctuary.lifecycle import EnclaveState
from repro.serve import (
    BatchScheduler,
    EnclaveWorkerPool,
    SequentialBaseline,
    ServeConfig,
    ServingLoop,
    ServingService,
)
from repro.tflm.interpreter import Interpreter
from repro.train.convert import fingerprint_to_int8
from repro.trustzone.worlds import make_platform

from .helpers import build_tiny_int8_model

pytestmark = pytest.mark.serve

KEY_BITS = 768


def make_stack(seed=b"serve-test", **config):
    model = build_tiny_int8_model()
    platform = make_platform(seed=seed, key_bits=KEY_BITS)
    vendor = Vendor("ml-vendor", model, key_bits=KEY_BITS)
    config.setdefault("num_workers", 2)
    service = ServingService(platform, vendor, ServeConfig(**config))
    return platform, vendor, service, model


def tiny_fingerprints(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 8, 6), dtype=np.uint8)


def expected_results(model, fingerprints):
    interpreter = Interpreter(model)
    return [interpreter.classify(fingerprint_to_int8(fp))
            for fp in fingerprints]


def serve_one(loop, handle, fingerprint):
    """Submit one request and drive the loop until it completes."""
    seq = loop.service.submit(handle, fingerprint)
    loop.run_until_idle(force=True)
    return handle.take_result(seq)


def execute_unpolled(service):
    """Ingest everything and run it as one batch on worker 0, leaving
    the sealed responses in the egress ring for the test to inspect
    (a loop tick would poll them straight away)."""
    batch = []
    service.ingest(batch.append)

    def requeue(_):
        raise AssertionError("the worker must not panic here")

    service.run_batch(batch, service.pool.workers[0], requeue)


# --- scheduler -----------------------------------------------------------

def test_scheduler_size_trigger():
    scheduler = BatchScheduler(VirtualClock(), max_batch=3, deadline_ms=50.0)
    scheduler.submit("a")
    scheduler.submit("b")
    assert not scheduler.ready()
    scheduler.submit("c")
    assert scheduler.ready()
    assert scheduler.next_batch() == ["a", "b", "c"]
    assert scheduler.full_batches == 1
    assert scheduler.deadline_flushes == 0


def test_scheduler_deadline_trigger_on_virtual_clock():
    clock = VirtualClock()
    scheduler = BatchScheduler(clock, max_batch=8, deadline_ms=2.0)
    scheduler.submit("only")
    assert not scheduler.ready()
    clock.advance_ms(1.9)
    assert not scheduler.ready()
    clock.advance_ms(0.2)
    assert scheduler.ready()  # the oldest request aged past the deadline
    assert scheduler.next_batch() == ["only"]
    assert scheduler.deadline_flushes == 1


def test_scheduler_next_batch_requires_ready():
    scheduler = BatchScheduler(VirtualClock(), max_batch=4)
    scheduler.submit("x")
    with pytest.raises(ServeError, match="no batch is ready"):
        scheduler.next_batch()


def test_scheduler_flush_takes_everything():
    scheduler = BatchScheduler(VirtualClock(), max_batch=4)
    assert scheduler.flush() == []
    for item in range(6):
        scheduler.submit(item)
    assert scheduler.next_batch() == [0, 1, 2, 3]
    assert scheduler.flush() == [4, 5]
    assert len(scheduler) == 0
    assert scheduler.submitted == 6
    assert scheduler.batches == 2


def test_scheduler_validates_parameters():
    with pytest.raises(ServeError):
        BatchScheduler(VirtualClock(), max_batch=0)
    with pytest.raises(ServeError):
        BatchScheduler(VirtualClock(), deadline_ms=-1.0)


def test_scheduler_flush_on_empty_queue_counts_no_batch():
    """An empty flush is a no-op, not a zero-length batch: none of the
    dispatch counters may move."""
    scheduler = BatchScheduler(VirtualClock(), max_batch=4)
    assert scheduler.flush() == []
    assert scheduler.flush() == []
    assert scheduler.batches == 0
    assert scheduler.full_batches == 0
    assert scheduler.deadline_flushes == 0


def test_scheduler_two_sessions_share_one_deadline_flush():
    """Requests from two sessions stamped at the same virtual instant
    age past the deadline together and leave in ONE batch, FIFO."""
    clock = VirtualClock()
    scheduler = BatchScheduler(clock, max_batch=8, deadline_ms=2.0)
    scheduler.submit(("session-a", 0))
    scheduler.submit(("session-b", 0))  # same now_ms: no clock advance
    clock.advance_ms(2.0)
    assert scheduler.ready()
    assert scheduler.next_batch() == [("session-a", 0), ("session-b", 0)]
    assert scheduler.deadline_flushes == 1
    assert not scheduler.ready()


def test_scheduler_deadline_fires_mid_drain():
    """Draining a full batch takes (virtual) time; the leftover partial
    batch crosses its deadline during that drain and must become ready
    again without new submissions."""
    clock = VirtualClock()
    scheduler = BatchScheduler(clock, max_batch=4, deadline_ms=2.0)
    for item in range(5):
        scheduler.submit(item)
    assert scheduler.next_batch() == [0, 1, 2, 3]
    assert not scheduler.ready()      # the straggler is still young
    clock.advance_ms(2.5)             # batch execution on the worker
    assert scheduler.ready()          # ...ages it past the deadline
    assert scheduler.next_batch() == [4]
    assert scheduler.full_batches == 1
    assert scheduler.deadline_flushes == 1


# --- worker pool ---------------------------------------------------------

def test_pool_pins_one_worker_per_big_core():
    model = build_tiny_int8_model()
    platform = make_platform(seed=b"serve-pool", key_bits=KEY_BITS)
    vendor = Vendor("ml-vendor", model, key_bits=KEY_BITS)
    pool = EnclaveWorkerPool(platform, vendor, num_workers=2)

    core_ids = [worker.core_id for worker in pool.workers]
    big_ids = {core.core_id for core in platform.soc.cores if core.big}
    assert len(set(core_ids)) == 2
    assert set(core_ids) <= big_ids
    pool.teardown()


def test_pool_sequential_fallback_without_big_cores():
    model = build_tiny_int8_model()
    platform = make_platform(seed=b"serve-fallback", key_bits=KEY_BITS)
    soc = platform.soc
    # Occupy all but one big core so only one pinned placement remains.
    for core in list(soc.os_big_cores())[1:]:
        soc.claim_os_core(core.core_id)
    vendor = Vendor("ml-vendor", model, key_bits=KEY_BITS)
    pool = EnclaveWorkerPool(platform, vendor, num_workers=2)

    fingerprints = tiny_fingerprints(2)
    expected = expected_results(model, fingerprints)
    for worker in pool.workers:  # both placements actually serve
        labels, scores = worker.run_batch(fingerprints)
        for row, (exp_label, exp_scores) in enumerate(expected):
            assert labels[row] == exp_label
            assert np.array_equal(scores[row], exp_scores)
    pool.teardown()


def test_worker_fails_closed_on_internal_fault():
    model = build_tiny_int8_model()
    platform = make_platform(seed=b"serve-panic", key_bits=KEY_BITS)
    vendor = Vendor("ml-vendor", model, key_bits=KEY_BITS)
    pool = EnclaveWorkerPool(platform, vendor, num_workers=1)
    worker = pool.workers[0]

    def explode(ctx, fingerprints):
        raise RuntimeError("bitflip in the matmul")

    worker.session.app.recognize_fingerprints = explode
    with pytest.raises(RuntimeError):
        worker.run_batch(tiny_fingerprints(2))
    # The enclave panicked: scrubbed and torn down, not left running
    # with decrypted model state.
    assert worker.session.instance.state is EnclaveState.TORN_DOWN


# --- serving service -----------------------------------------------------

def test_service_end_to_end_matches_direct_classify():
    platform, vendor, service, model = make_stack(max_batch=4)
    loop = ServingLoop(service)
    provisioned = vendor.provisioned_count
    released = vendor.keys_released

    sessions = [service.open_session() for _ in range(2)]
    fingerprints = tiny_fingerprints(8, seed=3)
    expected = expected_results(model, fingerprints)

    sequences = []
    for index, fingerprint in enumerate(fingerprints):
        handle = sessions[index % 2]
        sequences.append((handle, service.submit(handle, fingerprint)))
        if (index + 1) % 4 == 0:
            assert loop.tick() >= 1

    for index, (handle, seq) in enumerate(sequences):
        label, scores = handle.take_result(seq)
        exp_label, exp_scores = expected[index]
        assert label == exp_label
        assert np.array_equal(scores, exp_scores)

    # Steady-state serving never re-provisions: the vendor interaction
    # happened once per worker at pool construction.
    assert vendor.provisioned_count == provisioned
    assert vendor.keys_released == released
    stats = service.stats()
    assert stats.requests_completed == 8
    assert stats.full_batches == 2
    assert stats.open_sessions == 2
    assert stats.queue_depth == 0
    assert stats.p95_ms >= stats.p50_ms > 0
    service.teardown()


def test_service_keystream_prefetch_is_transparent():
    """Serving-loop prefetch changes timing, never bytes: results with
    prefetch_depth=2 match prefetch_depth=0 exactly, and the response
    lane's seals become keystream-cache hits."""
    fingerprints = tiny_fingerprints(6, seed=11)
    outcomes = {}
    for depth in (0, 2):
        platform, _, service, model = make_stack(
            max_batch=3, prefetch_depth=depth)
        loop = ServingLoop(service)
        handle = service.open_session()
        sequences = [service.submit(handle, fp) for fp in fingerprints]
        loop.run_until_idle(force=True)
        outcomes[depth] = [handle.take_result(seq) for seq in sequences]
        cache = service._service_keystreams
        if depth == 0:
            assert cache.prefetches == 0
        else:
            assert cache.prefetches > 0
            # Chunks covering actual traffic were all consumed by
            # seals; only the speculative lookahead tail (chunk
            # indexes past end-of-traffic) may remain untouched.
            assert all(key[2] >= 1 for key in cache._prefetched_unused)
            assert len(cache._prefetched_unused) < depth
        service.teardown()
    for (label_a, scores_a), (label_b, scores_b) in zip(
            outcomes[0], outcomes[2]):
        assert label_a == label_b
        assert np.array_equal(scores_a, scores_b)


def test_service_drops_tampered_ingress_frame():
    """A frame corrupted in the OS-relayed ring fails the batched tag
    verify and is dropped; the rest of the batch still serves."""
    platform, _, service, model = make_stack(max_batch=8)
    loop = ServingLoop(service)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(5, seed=21)
    expected = expected_results(model, fingerprints)
    sequences = [service.submit(handle, fp) for fp in fingerprints]
    # Flip one ciphertext bit of the frame at the ring head, in place.
    victim = service._ingress_cons.try_peek()
    victim[10] ^= 0x40
    loop.run_until_idle(force=True)
    assert service.stats().auth_failures == 1
    for index, seq in enumerate(sequences):
        if index == 0:
            with pytest.raises(ServeError):
                handle.take_result(seq)
        else:
            label, scores = handle.take_result(seq)
            assert label == expected[index][0]
            assert np.array_equal(scores, expected[index][1])
    service.teardown()


def test_service_drops_tampered_egress_response():
    """Tag tampering on the response ring is caught by the client mux:
    the response is dropped, the session survives."""
    platform, _, service, model = make_stack(max_batch=2)
    loop = ServingLoop(service)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(2, seed=22)
    sequences = [service.submit(handle, fp) for fp in fingerprints]
    execute_unpolled(service)
    frame = service._egress_cons.try_peek()
    frame[-1] ^= 0x01   # corrupt the first response's tag
    service.poll_responses()
    assert service.stats().auth_failures == 1
    with pytest.raises(ServeError):
        handle.take_result(sequences[0])
    label, scores = handle.take_result(sequences[1])
    exp = expected_results(model, fingerprints)[1]
    assert label == exp[0] and np.array_equal(scores, exp[1])
    # The session keeps serving after the drop.
    label2, _ = serve_one(loop, handle, fingerprints[0])
    assert label2 == expected_results(model, fingerprints)[0][0]
    service.teardown()


def test_service_deadline_flushes_partial_batch():
    platform, _, service, model = make_stack(max_batch=8, deadline_ms=2.0)
    # Fixed batch size: the adaptive batcher would shrink the target to
    # 1 and run the lone request as a full batch at once.
    loop = ServingLoop(service, adaptive=False)
    handle = service.open_session()
    fingerprint = tiny_fingerprints(1)[0]
    seq = service.submit(handle, fingerprint)
    assert loop.tick() == 0  # below batch size, under deadline
    platform.soc.clock.advance_ms(2.5)
    assert loop.tick() == 1  # deadline trigger, no force needed
    label, scores = handle.take_result(seq)
    exp_label, exp_scores = expected_results(model, [fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_sessions_have_isolated_keys():
    _, _, service, _ = make_stack()
    first = service.open_session()
    second = service.open_session()
    assert first.session_id != second.session_id
    assert first.request_key != second.request_key
    assert first.response_key != second.response_key
    assert first.request_key != first.response_key
    service.teardown()


def test_service_drops_frames_for_closed_session_without_wedging():
    """A dead frame at the ring head must not take the service down:
    it is dropped (slot released) and other sessions keep serving."""
    _, _, service, model = make_stack()
    loop = ServingLoop(service)
    closed = service.open_session()
    live = service.open_session()
    service.close_session(closed)
    service.submit(closed, tiny_fingerprints(1)[0])
    fingerprint = tiny_fingerprints(1, seed=5)[0]
    seq = service.submit(live, fingerprint)
    assert loop.tick(force=True) == 1
    assert service.stats().frames_dropped == 1
    label, scores = live.take_result(seq)
    exp_label, exp_scores = expected_results(model, [fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_drops_responses_for_sessions_closed_mid_flight():
    """Closing a session between ingest and batch execution drops only
    that session's response; the rest of the batch completes."""
    _, _, service, model = make_stack(max_batch=4)
    loop = ServingLoop(service, adaptive=False)
    doomed = service.open_session()
    live = service.open_session()
    service.submit(doomed, tiny_fingerprints(1)[0])
    fingerprint = tiny_fingerprints(1, seed=7)[0]
    seq = service.submit(live, fingerprint)
    assert loop.tick() == 0      # both requests now sit in a class queue
    service.close_session(doomed)
    assert loop.tick(force=True) == 1
    assert service.stats().responses_dropped == 1
    label, scores = live.take_result(seq)
    exp_label, exp_scores = expected_results(model, [fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_open_session_refuses_beyond_capacity():
    """Capacity is an admission limit: the Nth+1 open_session is
    refused instead of silently evicting a live session's keys."""
    _, _, service, _ = make_stack(session_capacity=2)
    first = service.open_session()
    service.open_session()
    with pytest.raises(ServeError, match="session capacity"):
        service.open_session()
    service.close_session(first)
    third = service.open_session()   # freed by the close
    assert third.session_id not in (first.session_id,)
    service.teardown()


def test_service_egress_backpressure_never_drops_requests():
    """A batch whose responses do not fit the egress ring is deferred
    in its mailbox, not dropped; once the client mux drains the ring
    every queued request still completes."""
    _, _, service, model = make_stack(ring_slots=8, max_batch=4,
                                      deadline_ms=50.0)
    loop = ServingLoop(service, adaptive=False)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(14, seed=13)
    expected = expected_results(model, fingerprints)

    first_wave = [service.submit(handle, fp) for fp in fingerprints[:7]]
    assert loop.tick() == 1               # one full batch, 3 left queued
    second_wave = [service.submit(handle, fp) for fp in fingerprints[7:]]
    # Two full batches form, but the egress ring (7 slots) holds only
    # one batch of 4 responses: the second waits in its mailbox.
    assert loop.tick() == 1
    assert loop.mailbox_depth() == 4
    loop.run_until_idle(force=True)

    for seq, (exp_label, exp_scores) in zip(first_wave + second_wave,
                                            expected):
        label, scores = handle.take_result(seq)
        assert label == exp_label
        assert np.array_equal(scores, exp_scores)
    assert service.stats().requests_completed == 14
    service.teardown()


def test_service_skips_responses_of_sessions_closed_in_flight():
    _, _, service, _ = make_stack()
    handle = service.open_session()
    service.submit(handle, tiny_fingerprints(1)[0])
    execute_unpolled(service)   # response is sitting in the egress ring
    service.close_session(handle)
    assert service.poll_responses() == 0
    assert service.stats().requests_completed == 0
    service.teardown()


def test_service_ingress_ring_full_raises():
    _, _, service, _ = make_stack(ring_slots=4, num_workers=1)
    handle = service.open_session()
    fingerprints = tiny_fingerprints(4)
    for fingerprint in fingerprints[:3]:  # capacity is ring_slots - 1
        service.submit(handle, fingerprint)
    with pytest.raises(ServeError, match="ingress ring full"):
        service.submit(handle, fingerprints[3])
    service.teardown()


def test_service_rejects_malformed_fingerprint():
    _, _, service, _ = make_stack()
    handle = service.open_session()
    with pytest.raises(ServeError, match="fingerprint must be"):
        service.submit(handle, np.zeros((5, 5), dtype=np.uint8))
    service.teardown()


def test_serve_convenience_roundtrip():
    """One request driven to completion through the loop, batch of 1."""
    _, _, service, model = make_stack(num_workers=1)
    loop = ServingLoop(service)
    handle = service.open_session()
    fingerprint = tiny_fingerprints(1, seed=9)[0]
    label, scores = serve_one(loop, handle, fingerprint)
    exp_label, exp_scores = expected_results(model, [fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_stats_is_a_frozen_snapshot():
    """stats() returns one immutable value object, not live references:
    serving more traffic must not mutate an already-taken snapshot."""
    _, _, service, _ = make_stack(max_batch=2)
    loop = ServingLoop(service)
    handle = service.open_session()
    before = service.stats()
    assert before.requests_completed == 0
    assert before.open_sessions == 1

    for fingerprint in tiny_fingerprints(2, seed=21):
        service.submit(handle, fingerprint)
    loop.tick()

    after = service.stats()
    assert before.requests_completed == 0      # old snapshot unchanged
    assert after.requests_completed == 2
    assert after.batches == 1
    with pytest.raises(Exception):             # frozen dataclass
        after.requests_completed = 99
    service.teardown()


# --- sequential baseline -------------------------------------------------

def test_sequential_baseline_matches_direct_classify():
    model = build_tiny_int8_model()
    platform = make_platform(seed=b"serve-baseline", key_bits=KEY_BITS)
    vendor = Vendor("ml-vendor", model, key_bits=KEY_BITS)
    baseline = SequentialBaseline(platform, vendor)

    fingerprints = tiny_fingerprints(3, seed=11)
    expected = expected_results(model, fingerprints)
    for fingerprint, (exp_label, exp_scores) in zip(fingerprints, expected):
        label, scores = baseline.request(fingerprint)
        assert label == exp_label
        assert np.array_equal(scores, exp_scores)
    assert baseline.requests == 3
    baseline.teardown()
