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
from repro.eval.bench import KEY_BITS
from repro.hw.timing import VirtualClock
from repro.sanctuary.lifecycle import EnclaveState
from repro.serve import (
    BatchScheduler,
    EnclaveWorkerPool,
    Priority,
    SequentialBaseline,
)
from repro.tflm.interpreter import Interpreter
from repro.train.convert import fingerprint_to_int8
from repro.trustzone.worlds import make_platform

from .helpers import build_tiny_int8_model, tiny_stack

pytestmark = pytest.mark.serve

INTERACTIVE, BATCH = Priority.INTERACTIVE, Priority.BATCH


def tiny_fingerprints(count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 8, 6), dtype=np.uint8)


def expected_results(fingerprints):
    """Direct classification by the tiny model."""
    interpreter = Interpreter(build_tiny_int8_model())
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
    service, _, _ = tiny_stack(seed=b"serve-pool")
    core_ids = [worker.core_id for worker in service.pool.workers]
    big_ids = {core.core_id for core in service.platform.soc.cores
               if core.big}
    assert len(set(core_ids)) == 2
    assert set(core_ids) <= big_ids
    service.teardown()


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
    expected = expected_results(fingerprints)
    for worker in pool.workers:  # both placements actually serve
        labels, scores = worker.run_batch(fingerprints)
        for row, (exp_label, exp_scores) in enumerate(expected):
            assert labels[row] == exp_label
            assert np.array_equal(scores[row], exp_scores)
    pool.teardown()


def test_worker_fails_closed_on_internal_fault():
    service, _, _ = tiny_stack(seed=b"serve-panic", num_workers=1)
    worker = service.pool.workers[0]

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
    service, loop, _ = tiny_stack(max_batch=4)
    vendor = service.pool._vendor
    provisioned = vendor.provisioned_count
    released = vendor.keys_released

    sessions = [service.open_session() for _ in range(2)]
    fingerprints = tiny_fingerprints(8, seed=3)
    expected = expected_results(fingerprints)

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


def test_service_drops_tampered_ingress_frame():
    """A frame corrupted in the OS-relayed ring fails the batched tag
    verify and is dropped; the rest of the batch still serves."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE, max_batch=8)
    fingerprints = tiny_fingerprints(5, seed=21)
    expected = expected_results(fingerprints)
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
    service, loop, (handle,) = tiny_stack(INTERACTIVE, max_batch=2)
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
    exp = expected_results(fingerprints)[1]
    assert label == exp[0] and np.array_equal(scores, exp[1])
    # The session keeps serving after the drop.
    label2, _ = serve_one(loop, handle, fingerprints[0])
    assert label2 == expected_results(fingerprints)[0][0]
    service.teardown()


def test_service_deadline_flushes_partial_batch():
    # Fixed batch size: the adaptive batcher would shrink the target to
    # 1 and run the lone request as a full batch at once.
    service, loop, (handle,) = tiny_stack(
        INTERACTIVE, max_batch=8, deadline_ms=2.0,
        loop_options={"adaptive": False})
    fingerprint = tiny_fingerprints(1)[0]
    seq = service.submit(handle, fingerprint)
    assert loop.tick() == 0  # below batch size, under deadline
    service.clock.advance_ms(2.5)
    assert loop.tick() == 1  # deadline trigger, no force needed
    label, scores = handle.take_result(seq)
    exp_label, exp_scores = expected_results([fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_sessions_have_isolated_keys():
    service, _, (first, second) = tiny_stack(INTERACTIVE, INTERACTIVE)
    assert first.session_id != second.session_id
    assert first.request_key != second.request_key
    assert first.response_key != second.response_key
    assert first.request_key != first.response_key
    service.teardown()


def test_service_drops_frames_for_closed_session_without_wedging():
    """A dead frame at the ring head must not take the service down:
    it is dropped (slot released) and other sessions keep serving."""
    service, loop, (closed, live) = tiny_stack(INTERACTIVE, INTERACTIVE)
    service.close_session(closed)
    service.submit(closed, tiny_fingerprints(1)[0])
    fingerprint = tiny_fingerprints(1, seed=5)[0]
    seq = service.submit(live, fingerprint)
    assert loop.tick(force=True) == 1
    assert service.stats().frames_dropped == 1
    label, scores = live.take_result(seq)
    exp_label, exp_scores = expected_results([fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_drops_responses_for_sessions_closed_mid_flight():
    """Closing a session between ingest and batch execution drops only
    that session's response; the rest of the batch completes."""
    service, loop, (doomed, live) = tiny_stack(
        INTERACTIVE, INTERACTIVE, max_batch=4,
        loop_options={"adaptive": False})
    service.submit(doomed, tiny_fingerprints(1)[0])
    fingerprint = tiny_fingerprints(1, seed=7)[0]
    seq = service.submit(live, fingerprint)
    assert loop.tick() == 0      # both requests now sit in a class queue
    service.close_session(doomed)
    assert loop.tick(force=True) == 1
    assert service.stats().responses_dropped == 1
    label, scores = live.take_result(seq)
    exp_label, exp_scores = expected_results([fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_open_session_refuses_beyond_capacity():
    """Capacity is an admission limit: the Nth+1 open_session is
    refused instead of silently evicting a live session's keys."""
    service, _, (first, _) = tiny_stack(INTERACTIVE, INTERACTIVE,
                                        session_capacity=2)
    with pytest.raises(ServeError, match="session capacity"):
        service.open_session()
    service.close_session(first)
    third = service.open_session()   # freed by the close
    assert third.session_id not in (first.session_id,)
    service.teardown()


def test_close_session_drops_both_sides_tag_tables():
    """close_session drops every H-derived table of all four taggers,
    also those of a SessionHandle the caller still holds."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    taggers = (*service._service_taggers[handle.session_id],
               handle.request_tagger, handle.response_tagger)
    serve_one(loop, handle, tiny_fingerprints(1)[0])
    assert all("_table" in vars(tagger) for tagger in taggers)
    service.close_session(handle)
    for tagger in taggers:
        assert not {"_table", "_planes", "_fold_planes"} & vars(tagger).keys()
    service.teardown()


def test_session_expands_one_key_schedule_per_side_and_key(monkeypatch):
    """Opening a session and serving one request expands eight AES key
    schedules, each of the session's four lane keys once per side: a
    tagger's schedule also keys its mask cache reads.  A mask cache
    that expanded its own schedule per tag lane would read twelve."""
    from repro.crypto import aes

    service, loop, (warm,) = tiny_stack(INTERACTIVE)
    fingerprints = tiny_fingerprints(2, seed=39)
    serve_one(loop, warm, fingerprints[0])
    expanded = []
    expand = aes.AES.__init__

    def counting(self, key):
        expanded.append(bytes(key))
        expand(self, key)

    monkeypatch.setattr(aes.AES, "__init__", counting)
    handle = service.open_session()
    serve_one(loop, handle, fingerprints[1])
    assert len(expanded) == 8
    assert all(expanded.count(key) == 2 for key in expanded)
    service.teardown()


def test_keystream_series_count_pad_and_mask_reads():
    """omg_keystream_{cache_hits,cache_misses,blocks}_total sum both
    sides' pad and mask caches.  One request's four tags (seal and
    verify, each direction) each read one mask block at seq 0."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE)
    serve_one(loop, handle, tiny_fingerprints(1, seed=40)[0])
    assert service._client_masks.blocks == 2
    assert service._service_masks.blocks == 2
    caches = service._keystream_caches
    counters = {name: value for kind, name, _, _, value in service.samples()
                if kind == "counter" and name.startswith("omg_keystream")}
    assert counters == {
        "omg_keystream_cache_hits_total": sum(c.hits for c in caches),
        "omg_keystream_cache_misses_total": sum(c.misses for c in caches),
        "omg_keystream_blocks_total": sum(c.blocks for c in caches),
    }
    pad_blocks = (service._client_keystreams.blocks
                  + service._service_keystreams.blocks)
    assert counters["omg_keystream_blocks_total"] == pad_blocks + 4
    service.teardown()


def test_open_sessions_retain_at_most_128_kib_each():
    """32 sessions, one request each, on 4096-byte keystream chunks
    retain at most 128 KiB per open session (tracemalloc, after a
    warm-up session).  Four product tables of about 14 KB each read
    about 79 KB per session; kept in four shifted copies per key they
    read about 252 KB."""
    import tracemalloc

    service, loop, (warm,) = tiny_stack(INTERACTIVE,
                                        keystream_chunk_bytes=4096)
    fingerprints = tiny_fingerprints(33, seed=38)
    serve_one(loop, warm, fingerprints[32])
    service.close_session(warm)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handles = [service.open_session() for _ in range(32)]
        for handle, fingerprint in zip(handles, fingerprints):
            serve_one(loop, handle, fingerprint)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert service.stats().open_sessions == 32
    assert retained / 32 <= 128 * 1024
    service.teardown()


def test_service_egress_backpressure_never_drops_requests():
    """A batch whose responses do not fit the egress ring is deferred
    in its mailbox, not dropped; once the client mux drains the ring
    every queued request still completes."""
    service, loop, (handle,) = tiny_stack(
        INTERACTIVE, ring_slots=8, max_batch=4, deadline_ms=50.0,
        loop_options={"adaptive": False})
    fingerprints = tiny_fingerprints(14, seed=13)
    expected = expected_results(fingerprints)

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
    service, _, (handle,) = tiny_stack(INTERACTIVE)
    service.submit(handle, tiny_fingerprints(1)[0])
    execute_unpolled(service)   # response is sitting in the egress ring
    service.close_session(handle)
    assert service.poll_responses() == 0
    assert service.stats().requests_completed == 0
    service.teardown()


def test_service_ingress_ring_full_raises():
    service, _, (handle,) = tiny_stack(INTERACTIVE, ring_slots=4,
                                       num_workers=1)
    fingerprints = tiny_fingerprints(4)
    for fingerprint in fingerprints[:3]:  # capacity is ring_slots - 1
        service.submit(handle, fingerprint)
    with pytest.raises(ServeError, match="ingress ring full"):
        service.submit(handle, fingerprints[3])
    service.teardown()


def test_service_rejects_malformed_fingerprint():
    service, _, (handle,) = tiny_stack(INTERACTIVE)
    for bad in (np.zeros((5, 5), dtype=np.uint8), [1, 2, 3]):
        with pytest.raises(ServeError, match="fingerprint must be"):
            service.submit(handle, bad)
        with pytest.raises(ServeError, match="fingerprint must be"):
            service.submit_many([(handle, bad)])
    assert handle.next_seq == 0
    service.teardown()


def test_submit_and_submit_many_write_identical_ingress_frames():
    """The per-request and batched client paths share one seal: twin
    services fed the same traffic hold byte-identical ingress frames,
    on both sides of the batched tag sweep's cutoff (17 short frames
    take the batched sweep in submit_many, the scalar one in submit)."""
    fingerprints = tiny_fingerprints(17, seed=5)
    wires = []
    for batched in (False, True):
        service, _, handles = tiny_stack(INTERACTIVE, INTERACTIVE)
        pairs = [(handles[index % 2], fingerprint)
                 for index, fingerprint in enumerate(fingerprints)]
        if batched:
            verdicts = service.submit_many(pairs)
        else:
            verdicts = [service.submit(h, fp) for h, fp in pairs]
        assert verdicts == [index // 2 for index in range(17)]
        ring = service._ingress_cons
        frames = []
        while (frame := ring.try_peek()) is not None:
            frames.append(frame.tobytes())
            ring.release()
        wires.append(frames)
        service.teardown()
    assert len(wires[0]) == 17
    assert wires[0] == wires[1]


def test_open_session_rejects_unknown_priority():
    """An invalid priority is refused before anything is drawn, so the
    session table and the session-id sequence are untouched (the loop
    would otherwise fail on it only after draining the ingress ring)."""
    service, _, (first,) = tiny_stack(INTERACTIVE)
    with pytest.raises(ServeError, match="priority"):
        service.open_session(priority=7)
    assert service.stats().open_sessions == 1
    assert service.open_session().session_id == first.session_id + 1
    service.teardown()


def test_serve_convenience_roundtrip():
    """One request driven to completion through the loop, batch of 1."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE, num_workers=1)
    fingerprint = tiny_fingerprints(1, seed=9)[0]
    label, scores = serve_one(loop, handle, fingerprint)
    exp_label, exp_scores = expected_results([fingerprint])[0]
    assert label == exp_label
    assert np.array_equal(scores, exp_scores)
    service.teardown()


def test_service_stats_is_a_frozen_snapshot():
    """stats() returns one immutable value object, not live references:
    serving more traffic must not mutate an already-taken snapshot."""
    service, loop, (handle,) = tiny_stack(INTERACTIVE, max_batch=2)
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
    expected = expected_results(fingerprints)
    for fingerprint, (exp_label, exp_scores) in zip(fingerprints, expected):
        label, scores = baseline.request(fingerprint)
        assert label == exp_label
        assert np.array_equal(scores, exp_scores)
    assert baseline.requests == 3
    baseline.teardown()


def test_frame_tags_is_bit_identical_on_both_sides_of_the_batch_cutoff():
    """One helper picks the scalar or batched sweep; either way each tag
    equals the frame's own per-key GCM tag arm.  2107-byte request
    ciphertexts take the batched sweep's lane-folded path; short frames
    have their own cutoff."""
    from repro.crypto.modes import FrameTagKey
    from repro.serve.frames import TAG_BATCH_MIN, TAG_BATCH_MIN_SHORT, \
        TAG_LONG_FRAME, frame_aad, frame_j0, frame_tags

    rng = np.random.default_rng(12)
    cases = [(size, n_keys, n)
             for size, n_keys, cutoff in (
                 (17, 3, TAG_BATCH_MIN_SHORT),
                 (TAG_LONG_FRAME - 1, 2, TAG_BATCH_MIN_SHORT),
                 (TAG_LONG_FRAME, 2, TAG_BATCH_MIN),
                 (2107, 1, TAG_BATCH_MIN), (2107, 4, TAG_BATCH_MIN))
             for n in (1, cutoff - 1, cutoff, 2 * cutoff + 1)]
    for size, n_keys, n in cases:
        taggers = [FrameTagKey(bytes([index]) * 16)
                   for index in range(n_keys)]
        keys = [taggers[index % n_keys] for index in range(n)]
        sessions = [index % n_keys for index in range(n)]
        seqs = [int(seq) for seq in rng.integers(0, 1 << 20, size=n)]
        ciphertexts = [
            rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            for _ in range(n)]
        expected = [key.tag(frame_j0(seq), frame_aad(sid, seq), ct)
                    for key, sid, seq, ct
                    in zip(keys, sessions, seqs, ciphertexts)]
        assert frame_tags(keys, sessions, seqs, ciphertexts) == expected


@pytest.mark.parametrize("side", ["scalar", "batched"])
@pytest.mark.parametrize("short", ["session_ids", "seqs", "ciphertexts"])
def test_frame_tags_rejects_mismatched_lengths_on_both_sides(side, short):
    """A short argument list raises instead of tagging fewer frames:
    a verify pass that silently truncated would skip frames without
    counting them in the exactly-once ledger."""
    from repro.crypto.modes import FrameTagKey
    from repro.errors import KeyError_
    from repro.serve.frames import TAG_BATCH_MIN, TAG_LONG_FRAME, \
        frame_tags

    n = TAG_BATCH_MIN - 1 if side == "scalar" else TAG_BATCH_MIN
    args = {"taggers": [FrameTagKey(b"\x07" * 16)] * n,
            "session_ids": [1] * n, "seqs": list(range(n)),
            "ciphertexts": [b"\x00" * TAG_LONG_FRAME] * n}
    args[short] = args[short][:-1]
    with pytest.raises(KeyError_, match="length mismatch"):
        frame_tags(**args)