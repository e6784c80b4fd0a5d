"""The serving front end: sessions, rings, sealing, batch execution.

Data path for one request (client session *S*, sequence *q*):

1. *S* seals its fingerprint in place into a reserved slot of the
   **ingress ring** (XOR with its request-lane keystream, plus a
   detached GCM tag over header + ciphertext) and commits.
2. The :class:`~repro.serve.loop.ServingLoop` drains the ring through
   :meth:`ServingService.ingest`, which verifies the drained tags in
   one batched GHASH sweep, opens the survivors, and hands
   (session, seq, fingerprint) to the loop's admission router.
3. When a batch is ready (size, deadline or watchdog trigger) the loop
   hands it to :meth:`ServingService.run_batch` on one worker slot,
   which prefetches each session's response-lane keystream, then runs
   **one batched invoke** for the whole group — bit-exact against
   per-request invokes — inside the fail-closed envelope.
4. Results are sealed per session into the **egress ring** — one
   vectorized XOR and one batched tag sweep per batch; the client mux
   verifies and opens them in place and completes the per-session
   futures.

Security properties preserved (paper §IV):

* The model never leaves an enclave — workers hold it; the rings only
  ever carry fingerprints and score vectors.
* Per-session key isolation — lane keys are derived per session and
  held in a scrub-on-evict :class:`~repro.crypto.keycache.SecretCache`;
  one session's traffic is opaque to every other session and to the OS
  relaying the ring memory.
* Steady-state requests never re-enter provisioning: workers are
  attested/provisioned once at pool construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.hmac import constant_time_eq
from repro.crypto.keycache import KeystreamCache, SecretCache
from repro.crypto.modes import FrameTagKey, frame_tags_batched
from repro.crypto.rng import HmacDrbg
from repro.errors import ProtocolError, ServeError
from repro.faults import hooks as _faults
from repro.hw.memory import RegionPolicy, World
from repro.obs import hooks as _obs
from repro.sanctuary.shm import SharedRegion, SlotRing
from repro.sanitizers import hooks as _sanitizers
from repro.serve.admission import Priority
from repro.serve.frames import (HEADER, TAG_BYTES, derive_lane_keys,
                                derive_lane_tag_keys, emit_sealed,
                                frame_aad, frame_j0, open_in_place,
                                seal_into)
from repro.serve.pool import EnclaveWorkerPool

__all__ = ["ServeConfig", "ServingStats", "SessionHandle", "ServingService",
           "Shed", "Rejected"]

# Batch-size histogram bounds: powers-ish of 2 around typical max_batch.
_BATCH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

# Below this many frames, tag computation/verification goes through the
# scalar per-frame sweep — the batched sweep's fixed numpy dispatch
# cost only amortizes across larger groups.
_TAG_BATCH_MIN = 4

_RING_FULL = "ingress ring full; let the serving loop drain it first"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`ServingService`."""

    max_batch: int = 8
    deadline_ms: float = 2.0
    ring_slots: int = 64
    num_workers: int | None = None
    session_capacity: int = 64
    keystream_chunk_bytes: int = 65536
    session_seed: bytes = b"omg-serve-sessions"
    # Response-lane keystream chunks generated ahead of demand per
    # session before a batch's inference runs (0 disables prefetch).
    prefetch_depth: int = 1
    # Strict mode raises ServeError when submit finds the ingress ring
    # full or open_session finds the session table full.
    # ``strict=False`` turns both into typed :class:`Shed`/
    # :class:`Rejected` results plus a ``requests_shed`` counter —
    # 429-style backpressure the caller can retry.
    strict: bool = True
    # Watchdog deadline the serving loop applies: a request stuck past
    # this age (true age, immune to injected scheduler skew) is
    # force-flushed even though the batching triggers say "wait".
    # ``None`` → 10x ``deadline_ms``.
    watchdog_ms: float | None = None
    # Upper bound on panicked-worker relaunches over the service's
    # lifetime; past it a worker crash surfaces as ServeError instead of
    # recovery (a crash-looping enclave should stop the service, not
    # spin it).
    max_worker_restarts: int = 8


@dataclass(frozen=True)
class Shed:
    """Typed backpressure verdict: this request was *not* accepted.

    Returned by :meth:`ServingService.submit` in graceful
    (``strict=False``) mode when the ingress ring has no room.  No
    sequence number was consumed and no state was created — the caller
    may retry the identical request after draining responses.
    """

    session_id: int
    reason: str


@dataclass(frozen=True)
class Rejected:
    """Typed admission verdict: the session was *not* opened.

    Returned by :meth:`ServingService.open_session` in graceful mode
    when the session table is at capacity.  Nothing was allocated.
    """

    reason: str


@dataclass
class SessionHandle:
    """Client-side state of one open serving session."""

    session_id: int
    request_key: bytes
    response_key: bytes
    request_tagger: FrameTagKey
    response_tagger: FrameTagKey
    next_seq: int = 0
    pending: dict = field(default_factory=dict)   # seq -> submit now_ms
    results: dict = field(default_factory=dict)   # seq -> (label, scores)

    def take_result(self, seq: int):
        """Pop the completed (label_index, scores) for one request."""
        if seq not in self.results:
            raise ServeError(
                f"session {self.session_id}: request {seq} not completed")
        return self.results.pop(seq)


@dataclass(frozen=True)
class ServingStats:
    """One structured snapshot of a service's counters.

    The only sanctioned way to read serving health — the underlying
    counters are private so instrumentation and tests cannot drift
    against loose attributes.
    """

    requests_completed: int
    frames_dropped: int
    responses_dropped: int
    auth_failures: int
    requests_shed: int
    admission_shed: int
    batches: int
    full_batches: int
    deadline_flushes: int
    watchdog_flushes: int
    workers_restarted: int
    batches_requeued: int
    open_sessions: int
    queue_depth: int
    p50_ms: float
    p95_ms: float
    p99_ms: float


class ServingService:
    """Multi-session serving over one worker pool and one ring pair."""

    def __init__(self, platform, vendor, config: ServeConfig | None = None,
                 pool: EnclaveWorkerPool | None = None) -> None:
        self.config = config or ServeConfig()
        self.platform = platform
        self.clock = platform.soc.clock
        self.pool = pool or EnclaveWorkerPool(
            platform, vendor, num_workers=self.config.num_workers)

        app = self.pool.workers[0].session.app
        interpreter = app.interpreter
        spec = interpreter.model.tensors[interpreter.model.inputs[0]]
        self.fingerprint_shape = (spec.shape[1], spec.shape[2])
        self.request_bytes = spec.shape[1] * spec.shape[2]
        self.num_labels = len(app.labels)
        self.response_bytes = 1 + self.num_labels

        soc = platform.soc
        slot_bytes = HEADER.size + max(self.request_bytes,
                                       self.response_bytes) + TAG_BYTES
        ring_bytes = SlotRing.bytes_needed(self.config.ring_slots, slot_bytes)
        # Pins are page-granular: keep the two rings on disjoint pages.
        egress_offset = (ring_bytes + 4095) & ~4095
        region = soc.allocate_region("serve-rings",
                                     egress_offset + ring_bytes)
        # The rings are untrusted OS-shared transport (payloads are
        # sealed), so the region stays world-open like the mailboxes.
        platform.monitor.configure_region(region, RegionPolicy())
        client_core = soc.least_busy_os_core(prefer_big=False).core_id
        service_core = self.pool.workers[0].core_id
        client_shm = SharedRegion(soc, region, World.NORMAL, client_core)
        service_shm = SharedRegion(soc, region, World.NORMAL, service_core)
        # Ingress: client produces, service consumes.  Egress: the
        # reverse.  Each endpoint maps the same pinned window.
        self._ingress_prod = SlotRing(client_shm, 0, self.config.ring_slots,
                                      slot_bytes, reset=True)
        self._ingress_cons = SlotRing(service_shm, 0, self.config.ring_slots,
                                      slot_bytes)
        self._egress_prod = SlotRing(service_shm, egress_offset,
                                     self.config.ring_slots, slot_bytes,
                                     reset=True)
        self._egress_cons = SlotRing(client_shm, egress_offset,
                                     self.config.ring_slots, slot_bytes)

        # Service-side session secrets: lane keys live in a scrub-on-
        # discard cache whose capacity is enforced at open_session (an
        # admission limit — live sessions are never silently evicted);
        # each side keeps its own keystream cache (the client is not
        # supposed to share state with the service beyond the
        # established keys).
        self._session_keys = SecretCache(self.config.session_capacity)
        # Frame-tag keys (service side), keyed by session: dropped on
        # close_session alongside the lane keys.
        self._service_taggers: dict[int, tuple[FrameTagKey, FrameTagKey]] = {}
        self._client_keystreams = KeystreamCache(
            capacity=2 * self.config.session_capacity,
            chunk_bytes=self.config.keystream_chunk_bytes)
        self._service_keystreams = KeystreamCache(
            capacity=2 * self.config.session_capacity,
            chunk_bytes=self.config.keystream_chunk_bytes)
        self._session_rng = HmacDrbg(self.config.session_seed)
        self._handles: dict[int, SessionHandle] = {}
        self._next_session = 0
        self.latencies_ms: list[float] = []
        self._requests_completed = 0
        self._frames_dropped = 0
        self._responses_dropped = 0
        self._auth_failures = 0
        self._requests_shed = 0
        self._batches_requeued = 0
        # Session priority classes (interactive vs. batch), assigned at
        # open_session and read by the loop's admission router.
        self._session_priority: dict[int, int] = {}
        # The ServingLoop driving this service — stats() folds its queue,
        # watchdog and admission counters into the snapshot.
        self._loop = None

    # --- sessions ------------------------------------------------------

    def open_session(self, priority=None) -> "SessionHandle | Rejected":
        """Establish one client session: derive and cache its lane keys.

        Session establishment is local key derivation — the enclave
        workers were attested and provisioned at pool construction, so
        opening the Nth session costs no vendor interaction.

        ``priority`` assigns the session's admission class (see
        :class:`~repro.serve.admission.Priority`); the default is
        interactive.  The :class:`~repro.serve.loop.ServingLoop` routes
        the session's requests into that class's queue.

        Refuses beyond ``session_capacity``: silently LRU-evicting a
        still-open session's keys would strand its in-flight frames
        (and wedge the ring behind them), so the capacity is an
        admission limit, not an eviction policy.  Strict mode raises;
        graceful mode returns a typed :class:`Rejected`.
        """
        if len(self._session_keys) >= self.config.session_capacity:
            return self._refuse(Rejected(
                f"session capacity {self.config.session_capacity} "
                f"reached; close_session() one before opening another"))
        session_id = self._next_session
        self._next_session += 1
        master = self._session_rng.generate(16)
        request_key, response_key = derive_lane_keys(master)
        request_tag_key, response_tag_key = derive_lane_tag_keys(master)
        self._session_keys.put(session_id,
                               (bytearray(request_key),
                                bytearray(response_key)))
        # Each side holds its own tagger objects: the client is not
        # supposed to share state with the service beyond the
        # established keys.
        self._service_taggers[session_id] = (FrameTagKey(request_tag_key),
                                             FrameTagKey(response_tag_key))
        handle = SessionHandle(session_id, request_key, response_key,
                               FrameTagKey(request_tag_key),
                               FrameTagKey(response_tag_key))
        self._handles[session_id] = handle
        if priority is not None:
            self._session_priority[session_id] = int(priority)
        if _obs.TELEMETRY is not None:
            metrics = _obs.TELEMETRY.metrics
            metrics.counter("omg_serve_sessions_opened_total",
                            "serving sessions established").inc()
            metrics.gauge("omg_serve_open_sessions",
                          "currently open sessions").set(len(self._handles))
        return handle

    def session_priority(self, session_id: int) -> int:
        """The admission class assigned at open_session (0 when none)."""
        return self._session_priority.get(session_id, 0)

    def close_session(self, handle: SessionHandle) -> None:
        self._handles.pop(handle.session_id, None)
        self._session_priority.pop(handle.session_id, None)
        self._session_keys.discard(handle.session_id)
        self._service_taggers.pop(handle.session_id, None)
        self._client_keystreams.forget_session(handle.session_id)
        self._service_keystreams.forget_session(handle.session_id)
        if _obs.TELEMETRY is not None:
            metrics = _obs.TELEMETRY.metrics
            metrics.counter("omg_serve_sessions_closed_total",
                            "serving sessions torn down").inc()
            metrics.gauge("omg_serve_open_sessions",
                          "currently open sessions").set(len(self._handles))

    def _service_keys(self, session_id: int) -> tuple[bytes, bytes] | None:
        """This session's (request, response) lane keys, or ``None``
        for a session the service no longer (or never) knew."""
        keys = self._session_keys.get(session_id)
        if keys is None:
            return None
        return bytes(keys[0]), bytes(keys[1])

    # --- client side ---------------------------------------------------

    def submit(self, handle: SessionHandle,
               fingerprint: np.ndarray) -> "int | Shed":
        """Seal one uint8 fingerprint into the ingress ring; return seq.

        A full (or fault-stalled) ingress ring raises in strict mode and
        returns a typed :class:`Shed` in graceful mode — the sequence
        number is only consumed once the slot reservation has succeeded,
        so a shed request leaves no pending state behind and can be
        resubmitted verbatim.
        """
        flat = np.ascontiguousarray(fingerprint, dtype=np.uint8).reshape(-1)
        if flat.size != self.request_bytes:
            raise ServeError(
                f"fingerprint must be {self.fingerprint_shape}, "
                f"got {fingerprint.shape}")
        slot = self._ingress_prod.try_reserve()
        if slot is None:
            return self._refuse(Shed(handle.session_id, _RING_FULL))
        seq = handle.next_seq
        handle.next_seq += 1
        keystream = self._client_keystreams.take(
            handle.session_id, handle.request_key,
            seq * self.request_bytes, self.request_bytes)
        length = seal_into(slot, handle.session_id, seq, flat, keystream,
                           handle.request_tagger)
        if _faults.PLAN is not None:
            # Frame corruption models the untrusted OS relay flipping
            # bits in the sealed slot after the client wrote it.
            _faults.PLAN.ring_frame("serve.ingress", slot[:length])
        self._ingress_prod.commit(length)
        handle.pending[seq] = self.clock.now_ms
        return seq

    def submit_many(self, pairs) -> list:
        """Seal many requests in one pass: the batched client mux.

        ``pairs`` is a sequence of ``(handle, fingerprint)``; the return
        value is the per-request verdict list — an ``int`` seq for each
        accepted request, a :class:`Shed` otherwise (graceful mode).
        The win over per-request :meth:`submit` is the same two-phase
        batching :meth:`ingest` already uses: one vectorized XOR across
        every payload and one batched GHASH sweep for all the tags
        (scalar below :data:`_TAG_BATCH_MIN`), instead of a full GCM
        dispatch per frame.

        Requests beyond the ingress ring's current free space are shed
        up front without consuming a sequence number, exactly like
        :meth:`submit`.  A reservation that still fails mid-batch (an
        injected ``ring.reserve`` stall) sheds just that request; its
        already-assigned seq is *burned* — the keystream positions are
        simply never used, which is safe for CTR discipline, and no
        pending state is created — so the rest of the batch lands
        unaffected.  Strict mode raises on any reservation failure.
        """
        checked = []
        for handle, fingerprint in pairs:
            flat = np.ascontiguousarray(
                fingerprint, dtype=np.uint8).reshape(-1)
            if flat.size != self.request_bytes:
                raise ServeError(
                    f"fingerprint must be {self.fingerprint_shape}, "
                    f"got {fingerprint.shape}")
            checked.append((handle, flat))
        if not checked:
            return []
        free = self.config.ring_slots - 1 - len(self._ingress_prod)
        accept = min(len(checked), max(free, 0))
        # Refused before anything is sealed, so strict mode raises with
        # no seq consumed.
        tail = [self._refuse(Shed(handle.session_id, _RING_FULL))
                for handle, _ in checked[accept:]]
        verdicts: list = []
        if accept:
            n = accept
            seqs = []
            keystreams = np.empty((n, self.request_bytes), dtype=np.uint8)
            payloads = np.empty_like(keystreams)
            for row, (handle, flat) in enumerate(checked[:n]):
                seq = handle.next_seq
                handle.next_seq += 1
                seqs.append(seq)
                payloads[row] = flat
                keystreams[row] = self._client_keystreams.take(
                    handle.session_id, handle.request_key,
                    seq * self.request_bytes, self.request_bytes)
            ciphertexts = payloads ^ keystreams
            if n >= _TAG_BATCH_MIN:
                tags = frame_tags_batched(
                    [handle.request_tagger for handle, _ in checked[:n]],
                    [frame_j0(seq) for seq in seqs],
                    [frame_aad(handle.session_id, seq)
                     for (handle, _), seq in zip(checked[:n], seqs)],
                    [ciphertexts[row].tobytes() for row in range(n)])
            else:
                tags = [
                    handle.request_tagger.tag(
                        frame_j0(seq),
                        frame_aad(handle.session_id, seq),
                        ciphertexts[row].tobytes())
                    for row, ((handle, _), seq)
                    in enumerate(zip(checked[:n], seqs))]
            for row, ((handle, _), seq) in enumerate(zip(checked[:n], seqs)):
                slot = self._ingress_prod.try_reserve()
                if slot is None:
                    verdicts.append(self._refuse(
                        Shed(handle.session_id, _RING_FULL)))
                    continue
                length = emit_sealed(slot, handle.session_id, seq,
                                     ciphertexts[row], tags[row])
                if _faults.PLAN is not None:
                    _faults.PLAN.ring_frame("serve.ingress", slot[:length])
                self._ingress_prod.commit(length)
                handle.pending[seq] = self.clock.now_ms
                verdicts.append(seq)
        return verdicts + tail

    def poll_responses(self) -> int:
        """Client mux: drain, verify, and open responses, two-phase.

        Phase one copies every sealed response out of the egress ring
        and releases its slot.  Phase two verifies all the drained tags
        in one batched GHASH sweep (scalar below :data:`_TAG_BATCH_MIN`)
        and opens the survivors into their sessions' futures — the same
        two-phase shape as :meth:`ingest`, applied to the client side.
        """
        drained: list = []
        while (frame := self._egress_cons.try_peek()) is not None:
            session_id, seq, sealed, tag = open_in_place(frame)
            handle = self._handles.get(session_id)
            if handle is None:
                # Closed mid-flight, or a header corrupted in the
                # OS-relayed ring: account the drop so every accepted
                # seq is traceable to a response or a counted loss.
                self._egress_cons.release()
                self._count_frame_drop()
                continue
            drained.append((handle, session_id, seq, sealed.copy(), tag))
            self._egress_cons.release()
        if not drained:
            return 0
        if len(drained) >= _TAG_BATCH_MIN:
            expected = frame_tags_batched(
                [handle.response_tagger for handle, _, _, _, _ in drained],
                [frame_j0(seq) for _, _, seq, _, _ in drained],
                [frame_aad(sid, seq) for _, sid, seq, _, _ in drained],
                [sealed.tobytes() for _, _, _, sealed, _ in drained])
            verdicts = [constant_time_eq(want, tag)
                        for (_, _, _, _, tag), want in zip(drained, expected)]
        else:
            verdicts = [
                handle.response_tagger.verify(
                    frame_j0(seq), frame_aad(sid, seq), sealed.tobytes(),
                    tag)
                for handle, sid, seq, sealed, tag in drained]
        delivered = 0
        for (handle, session_id, seq, sealed, _), ok in zip(drained,
                                                            verdicts):
            if not ok:
                # Tampered or corrupted in the OS-relayed ring: drop
                # the response, never the session.
                self._count_auth_failure()
                continue
            keystream = self._client_keystreams.take(
                session_id, handle.response_key,
                seq * self.response_bytes, self.response_bytes)
            sealed ^= keystream   # open the drained copy
            label = int(sealed[0])
            scores = sealed[1:].copy().view(np.int8)
            submitted = handle.pending.pop(seq, None)
            if submitted is not None:
                latency_ms = self.clock.now_ms - submitted
                self.latencies_ms.append(latency_ms)
                if _obs.TELEMETRY is not None:
                    # Per-class latency distribution: one label set per
                    # priority class, however many sessions are open.
                    priority = Priority(self.session_priority(session_id))
                    _obs.TELEMETRY.metrics.histogram(
                        "omg_serve_latency_ms",
                        "request latency on the virtual clock",
                    ).observe(latency_ms, priority=priority.name.lower())
            handle.results[seq] = (label, scores)
            self._requests_completed += 1
            delivered += 1
        if delivered and _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_responses_total",
                "responses delivered to sessions").inc(delivered)
        return delivered

    # --- service side: the serving loop's seam ------------------------

    def _count_auth_failure(self) -> None:
        self._auth_failures += 1
        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_auth_failures_total",
                "frames dropped on tag verification failure").inc()

    def _count_shed(self) -> None:
        self._requests_shed += 1
        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_requests_shed_total",
                "requests/sessions refused with a typed backpressure "
                "verdict").inc()

    def _refuse(self, verdict: "Shed | Rejected") -> "Shed | Rejected":
        """Strict mode raises with the verdict's reason; graceful mode
        counts the refusal and hands the typed verdict back."""
        if self.config.strict:
            raise ServeError(verdict.reason)
        self._count_shed()
        return verdict

    def _count_frame_drop(self) -> None:
        self._frames_dropped += 1
        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_frames_dropped_total",
                "ring frames dropped for unknown/closed sessions").inc()

    def _count_response_drop(self, reason: str) -> None:
        """One response lost after its inference ran: the session closed
        mid-flight (``session_closed``) or an injected ``ring.reserve``
        stall refused its egress slot (``egress_stall``)."""
        self._responses_dropped += 1
        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_responses_dropped_total",
                "responses dropped after inference, by reason",
            ).inc(reason=reason)

    def ingest(self, sink) -> None:
        """Drain the ingress ring, two-phase, into ``sink``.

        Phase one copies every sealed frame out of the ring and releases
        its slot — the ring drains at memcpy speed regardless of crypto.
        Phase two verifies all the drained tags in one batched GHASH
        sweep (scalar below :data:`_TAG_BATCH_MIN`), then XOR-opens the
        survivors into ``sink`` (the loop's admission router).  Frames
        that fail authentication are dropped, never the ring or the
        session.
        """
        drained: list = []
        while (frame := self._ingress_cons.try_peek()) is not None:
            session_id, seq, sealed, tag = open_in_place(frame)
            if session_id not in self._service_taggers:
                # Unknown or closed session: drop the frame and move
                # on.  Raising with the slot still at the ring head
                # would wedge every session behind one dead frame.
                self._ingress_cons.release()
                self._count_frame_drop()
                continue
            drained.append((session_id, seq, sealed.copy(), tag))
            self._ingress_cons.release()
        if not drained:
            return
        if len(drained) >= _TAG_BATCH_MIN:
            expected = frame_tags_batched(
                [self._service_taggers[sid][0] for sid, _, _, _ in drained],
                [frame_j0(seq) for _, seq, _, _ in drained],
                [frame_aad(sid, seq) for sid, seq, _, _ in drained],
                [sealed.tobytes() for _, _, sealed, _ in drained])
            verdicts = [constant_time_eq(want, tag)
                        for (_, _, _, tag), want in zip(drained, expected)]
        else:
            verdicts = [
                self._service_taggers[sid][0].verify(
                    frame_j0(seq), frame_aad(sid, seq), sealed.tobytes(),
                    tag)
                for sid, seq, sealed, tag in drained]
        for (session_id, seq, sealed, _), ok in zip(drained, verdicts):
            if not ok:
                self._count_auth_failure()
                continue
            keys = self._service_keys(session_id)
            if keys is None:   # unreachable: tagger presence implies keys
                continue
            keystream = self._service_keystreams.take(
                session_id, keys[0],
                seq * self.request_bytes, self.request_bytes)
            sealed ^= keystream   # open the drained copy
            sink((session_id, seq, sealed.reshape(self.fingerprint_shape)))

    def egress_free(self) -> int:
        """Egress slots free for responses: a batch runs only when all
        of its responses fit."""
        return self.config.ring_slots - 1 - len(self._egress_prod)

    def frames_in_flight(self) -> int:
        """Sealed frames waiting in either ring: requests not yet
        ingested plus responses not yet polled."""
        return len(self._ingress_cons) + len(self._egress_cons)

    def run_batch(self, batch: list, worker, requeue) -> None:
        """Run one batch on ``worker`` and seal its responses.

        ``requeue`` takes the batch back if the worker panics — exactly
        once, nothing sealed yet.  The loop passes the originating class
        queue's requeue so the batch keeps its priority on retry.
        """
        telemetry = _obs.TELEMETRY
        if telemetry is None:
            self._execute_batch(batch, worker, requeue)
            return
        with telemetry.tracer.span("serve.batch", batch=len(batch)) as span:
            self._execute_batch(batch, worker, requeue)
            span.set_attribute("egress_occupancy", len(self._egress_prod))
        telemetry.metrics.histogram(
            "omg_serve_batch_size", "requests per executed batch",
            buckets=_BATCH_BUCKETS).observe(len(batch))

    def _execute_batch(self, batch: list, worker, requeue) -> None:
        soc = self.platform.soc
        fingerprints = np.stack([item[2] for item in batch])
        # Pipelined keystream prefetch: warm each session's response
        # lane before inference runs, so sealing afterwards is pure XOR
        # against cached chunks instead of blocking on AES-CTR.
        depth = self.config.prefetch_depth
        if depth > 0:
            for session_id, seq, _ in batch:
                keys = self._service_keys(session_id)
                if keys is not None:
                    self._service_keystreams.prefetch(
                        session_id, keys[1], seq * self.response_bytes,
                        depth)
        # One world-switch round trip per *batch*, not per request —
        # the scheduling win the simulated clock sees.
        soc.clock.advance_ms(2 * soc.profile.sa_world_switch_ms)
        try:
            labels, scores = worker.run_batch(fingerprints)
        except ProtocolError:
            # Malformed request — the enclave refused it and lives on;
            # this is a caller bug, not a crash to recover from.
            raise
        except Exception as exc:
            # The fail-closed envelope already panicked the enclave
            # (scrub + unlock).  Recover: requeue the batch at the front
            # of its class queue — exactly once, nothing was sealed yet —
            # and relaunch a fresh, re-attested worker on the same core.
            requeue(batch)
            self._batches_requeued += 1
            if _obs.TELEMETRY is not None:
                _obs.TELEMETRY.metrics.counter(
                    "omg_serve_batches_requeued_total",
                    "in-flight batches requeued after a worker panic"
                ).inc()
            if self.pool.restarts >= self.config.max_worker_restarts:
                raise ServeError(
                    f"worker crash-loop: {self.pool.restarts} restarts "
                    f"reached max_worker_restarts="
                    f"{self.config.max_worker_restarts}") from exc
            self.pool.restart_worker(worker)
            return
        int8_scores = np.asarray(scores, dtype=np.int8)
        live = []
        for row, (session_id, seq, _) in enumerate(batch):
            keys = self._service_keys(session_id)
            if keys is None:
                # Session closed while its request was in flight:
                # there is no one to seal for — drop this response,
                # keep the rest of the batch.
                self._count_response_drop("session_closed")
                continue
            live.append((row, session_id, seq, keys[1]))
        if not live:
            return
        # Batched seal: one vectorized XOR for every response in the
        # batch (the keystream chunks are warm from the prefetch above),
        # then one GHASH sweep for every tag.
        payloads = np.empty((len(live), self.response_bytes), dtype=np.uint8)
        keystreams = np.empty_like(payloads)
        for out, (row, session_id, seq, response_key) in enumerate(live):
            payloads[out, 0] = labels[row]
            payloads[out, 1:] = int8_scores[row].view(np.uint8)
            keystreams[out] = self._service_keystreams.take(
                session_id, response_key,
                seq * self.response_bytes, self.response_bytes)
        ciphertexts = payloads ^ keystreams
        if len(live) >= _TAG_BATCH_MIN:
            tags = frame_tags_batched(
                [self._service_taggers[sid][1] for _, sid, _, _ in live],
                [frame_j0(seq) for _, _, seq, _ in live],
                [frame_aad(sid, seq) for _, sid, seq, _ in live],
                [ciphertexts[out].tobytes() for out in range(len(live))])
        else:
            tags = [
                self._service_taggers[sid][1].tag(
                    frame_j0(seq), frame_aad(sid, seq),
                    ciphertexts[out].tobytes())
                for out, (_, sid, seq, _) in enumerate(live)]
        for out, (_, session_id, seq, _) in enumerate(live):
            slot = self._egress_prod.try_reserve()
            if slot is None:
                # The loop checked room per batch, so a genuine full here
                # is unreachable — but an injected ring.reserve stall can
                # land on this reservation.  The inference already ran;
                # raising now would lose the whole batch's responses.
                # Drop just this one, accounted, and seal the rest.
                self._count_response_drop("egress_stall")
                continue
            length = emit_sealed(slot, session_id, seq, ciphertexts[out],
                                 tags[out])
            if _faults.PLAN is not None:
                _faults.PLAN.ring_frame("serve.egress", slot[:length])
            self._egress_prod.commit(length)

    # --- health --------------------------------------------------------

    def latency_percentiles(self) -> dict[str, float]:
        if not self.latencies_ms:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        lat = np.asarray(self.latencies_ms)
        p50, p95, p99 = np.percentile(lat, (50, 95, 99))
        return {"p50_ms": float(p50), "p95_ms": float(p95),
                "p99_ms": float(p99)}

    def attach_loop(self, loop) -> None:
        """Register the :class:`~repro.serve.loop.ServingLoop` driving
        this service so :meth:`stats` folds its counters (batches
        formed, queue depth, watchdog flushes, admission sheds) into the
        snapshot."""
        self._loop = loop

    def stats(self) -> ServingStats:
        """The structured health snapshot (see :class:`ServingStats`)."""
        percentiles = self.latency_percentiles()
        batches = full_batches = deadline_flushes = queue_depth = 0
        admission_shed = watchdog_flushes = 0
        loop = self._loop
        if loop is not None:
            for queue in loop.queues.values():
                batches += queue.batches
                full_batches += queue.full_batches
                deadline_flushes += queue.deadline_flushes
            queue_depth = loop.queue_depth() + loop.mailbox_depth()
            admission_shed = sum(loop.admission.shed.values())
            watchdog_flushes = loop.watchdog_flushes
        return ServingStats(
            requests_completed=self._requests_completed,
            frames_dropped=self._frames_dropped,
            responses_dropped=self._responses_dropped,
            auth_failures=self._auth_failures,
            requests_shed=self._requests_shed,
            admission_shed=admission_shed,
            batches=batches,
            full_batches=full_batches,
            deadline_flushes=deadline_flushes,
            watchdog_flushes=watchdog_flushes,
            workers_restarted=self.pool.restarts,
            batches_requeued=self._batches_requeued,
            open_sessions=len(self._handles),
            queue_depth=queue_depth,
            p50_ms=percentiles["p50_ms"],
            p95_ms=percentiles["p95_ms"],
            p99_ms=percentiles["p99_ms"],
        )

    def teardown(self) -> None:
        self.pool.teardown()
        state = _sanitizers.STATE
        if state is not None:
            soc = self.platform.soc
            if state.rings is not None:
                state.rings.check_teardown()
            if state.secrets is not None:
                # Enclave regions still TZASC-locked (quarantined after
                # a failed scrub) are excluded, like the chaos sweep.
                locked = [region
                          for region, policy in soc.tzasc.regions()
                          if policy.secure_only
                          or policy.bound_core is not None]
                state.secrets.check_teardown(soc.memory, locked)
