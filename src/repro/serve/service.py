"""The serving front end: sessions, rings, sealing, batch execution.

Data path for one request (client session *S*, sequence *q*):

1. *S* seals its fingerprint (XOR with its request-lane keystream,
   plus a detached GCM tag over header + ciphertext) into a reserved
   slot of the **ingress ring** and commits.
2. The :class:`~repro.serve.loop.ServingLoop` drains the ring through
   :meth:`ServingService.ingest`, which verifies the drained tags in
   one batched GHASH sweep, opens the survivors, and hands
   (session, seq, fingerprint) to the loop's admission router.
3. When a batch is ready (size, deadline or watchdog trigger) the loop
   hands it to :meth:`ServingService.run_batch` on one worker slot,
   which runs **one batched invoke** for the whole group — bit-exact
   against per-request invokes — inside the fail-closed envelope.
4. Results are sealed per session into the **egress ring** — a
   keystream XOR per frame and one batched tag sweep per batch; the
   client mux verifies and opens them and completes the per-session
   futures.

Each side reads its sealing pads and frame-tag masks on demand from
two :class:`~repro.crypto.keycache.KeystreamCache` instances.

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
from functools import partial

import numpy as np

from repro.crypto.hmac import constant_time_eq
from repro.crypto.keycache import KeystreamCache, SecretCache
from repro.crypto.modes import FrameTagKey
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
                                frame_tags, open_in_place)
from repro.serve.pool import EnclaveWorkerPool

__all__ = ["ServeConfig", "ServingStats", "SessionHandle", "ServingService",
           "Shed", "Rejected"]

# Batch-size histogram bounds: powers-ish of 2 around typical max_batch.
_BATCH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)

_RING_FULL = "ingress ring full; let the serving loop drain it first"

# Seed of the DRBG that draws each session's lane-key material.
_SESSION_SEED = b"omg-serve-sessions"

# Chunk size of the frame-tag mask caches: 128 masks a chunk.  128
# divides 2**32, so no chunk crosses an inc32 wrap.  On serve_steady
# 128- and 256-block chunks measured level, 64 slower.
_MASK_CACHE_CHUNK_BYTES = 2048


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one :class:`ServingService`.

    Both priority classes batch under ``max_batch`` and
    ``deadline_ms``.  Sealing and opening read each lane's pad
    keystream on demand, in ``keystream_chunk_bytes`` chunks
    (:class:`KeystreamCache`): short reads run exactly, longer ones
    fill their chunk.
    """

    max_batch: int = 8
    deadline_ms: float = 2.0
    ring_slots: int = 64
    num_workers: int | None = None
    session_capacity: int = 64
    keystream_chunk_bytes: int = 65536
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

    def __init__(self, platform, vendor,
                 config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.platform = platform
        self.clock = platform.soc.clock
        self.pool = EnclaveWorkerPool(
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
        # each side keeps its own pad and mask keystream caches (the
        # client is not supposed to share state with the service
        # beyond the established keys).
        self._session_keys = SecretCache(self.config.session_capacity)
        # Frame-tag keys (service side), keyed by session: dropped on
        # close_session alongside the lane keys.
        self._service_taggers: dict[int, tuple[FrameTagKey, FrameTagKey]] = {}
        lanes = 2 * self.config.session_capacity
        self._client_keystreams = KeystreamCache(
            capacity=lanes, chunk_bytes=self.config.keystream_chunk_bytes)
        self._service_keystreams = KeystreamCache(
            capacity=lanes, chunk_bytes=self.config.keystream_chunk_bytes)
        self._client_masks = KeystreamCache(
            capacity=lanes, chunk_bytes=_MASK_CACHE_CHUNK_BYTES)
        self._service_masks = KeystreamCache(
            capacity=lanes, chunk_bytes=_MASK_CACHE_CHUNK_BYTES)
        self._keystream_caches = (
            self._client_keystreams, self._service_keystreams,
            self._client_masks, self._service_masks)
        self._session_rng = HmacDrbg(_SESSION_SEED)
        self._handles: dict[int, SessionHandle] = {}
        self._next_session = 0
        self.latencies_ms: list[float] = []
        self._requests_completed = 0
        self._frames_dropped = 0
        # Responses lost after their inference ran, by reason: the
        # session closed mid-flight, or an injected ring.reserve stall
        # refused the egress slot.
        self._responses_dropped = {"session_closed": 0, "egress_stall": 0}
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
        graceful mode returns a typed :class:`Rejected`.  An unknown
        ``priority`` raises :class:`~repro.errors.ServeError` before
        anything is drawn or allocated.
        """
        if priority is not None:
            try:
                priority = Priority(priority)
            except ValueError:
                raise ServeError(
                    f"unknown session priority {priority!r}") from None
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
        # Each side holds its own tagger objects, reading masks from
        # its own mask cache: the client is not supposed to share state
        # with the service beyond the established keys.
        service_masks = partial(self._service_masks.block, session_id)
        client_masks = partial(self._client_masks.block, session_id)
        self._service_taggers[session_id] = (
            FrameTagKey(request_tag_key, service_masks),
            FrameTagKey(response_tag_key, service_masks))
        handle = SessionHandle(session_id, request_key, response_key,
                               FrameTagKey(request_tag_key, client_masks),
                               FrameTagKey(response_tag_key, client_masks))
        self._handles[session_id] = handle
        if priority is not None:
            self._session_priority[session_id] = int(priority)
        return handle

    def session_priority(self, session_id: int) -> int:
        """The admission class assigned at open_session (0 when none)."""
        return self._session_priority.get(session_id, 0)

    def close_session(self, handle: SessionHandle) -> None:
        self._handles.pop(handle.session_id, None)
        self._session_priority.pop(handle.session_id, None)
        self._scrub_session(handle)

    def _scrub_session(self, handle: SessionHandle) -> None:
        """Scrub a session's lane keys and both sides' pad and mask
        keystream chunks; drop both sides' tag tables."""
        session_id = handle.session_id
        self._session_keys.discard(session_id)
        for tagger in (*self._service_taggers.pop(session_id, ()),
                       handle.request_tagger, handle.response_tagger):
            tagger.scrub()
        for cache in self._keystream_caches:
            cache.forget_session(session_id)

    def _service_lane(self, session_id: int, direction: int):
        """The service's (lane key, tagger) for one direction (0 request,
        1 response), or ``None`` for a session it does not know."""
        taggers = self._service_taggers.get(session_id)
        if taggers is None:
            return None
        return (bytes(self._session_keys.get(session_id)[direction]),
                taggers[direction])

    def _client_lane(self, session_id: int):
        """The client's response-lane (key, tagger) for a session, or
        ``None`` once it is closed."""
        handle = self._handles.get(session_id)
        if handle is None:
            return None
        return handle.response_key, handle.response_tagger

    def _request_payload(self, fingerprint) -> np.ndarray:
        """``fingerprint`` as the flat uint8 request payload."""
        flat = np.ascontiguousarray(fingerprint, dtype=np.uint8).reshape(-1)
        if flat.size != self.request_bytes:
            raise ServeError(
                f"fingerprint must be {self.fingerprint_shape}, "
                f"got {np.asarray(fingerprint).shape}")
        return flat

    # --- sealing and opening: every frame crossing the rings -----------

    @staticmethod
    def _seal(cache: KeystreamCache, payloads: np.ndarray, rows):
        """Seal one payload row per (session_id, seq, lane key, tagger)
        in ``rows``: XOR each row with its keystream (a payload's length
        at ``seq`` payloads into its lane, so every keystream byte
        covers one message byte) straight into the ciphertext rows,
        then one :func:`~repro.serve.frames.frame_tags` sweep.  Returns
        (ciphertexts, tags)."""
        size = payloads.shape[1]
        ciphertexts = np.empty_like(payloads)
        for index, (session_id, seq, key, _) in enumerate(rows):
            np.bitwise_xor(payloads[index],
                           cache.take(session_id, key, seq * size, size),
                           out=ciphertexts[index])
        session_ids, seqs, _, taggers = zip(*rows)
        return ciphertexts, frame_tags(taggers, session_ids, seqs,
                                       [row.tobytes() for row in ciphertexts])

    @staticmethod
    def _emit(ring: SlotRing, site: str, slot: np.ndarray, session_id: int,
              seq: int, ciphertext: np.ndarray, tag: bytes) -> None:
        """Lay one sealed frame out in its reserved ``slot`` and commit
        it to ``ring``."""
        length = emit_sealed(slot, session_id, seq, ciphertext, tag)
        if _faults.PLAN is not None:
            # Frame corruption models the untrusted OS relay flipping
            # bits in the sealed slot after the producer wrote it.
            _faults.PLAN.ring_frame(site, slot[:length])
        ring.commit(length)

    def _drain(self, ring: SlotRing, lane, cache: KeystreamCache,
               size: int) -> list:
        """Drain ``ring``; return the frames that verify, XOR-opened
        under ``cache``, as (session_id, seq, payload) in ring order.

        Every frame is copied out and its slot released first.  A runt
        frame, or one for a session ``lane`` (session id -> (lane key,
        tagger)) does not know — closed mid-flight, or a header cut or
        corrupted in the OS-relayed ring — counts in ``frames_dropped``,
        so a dead frame never wedges the ring.  Then one
        :func:`~repro.serve.frames.frame_tags` sweep verifies the rest;
        a failure counts in ``auth_failures`` and drops that frame,
        never the session.
        """
        rows, ciphertexts, tags = [], [], []
        while (frame := ring.try_peek()) is not None:
            parsed = open_in_place(frame)
            keys = None if parsed is None else lane(parsed[0])
            if keys is None:
                self._frames_dropped += 1
            else:
                session_id, seq, sealed, tag = parsed
                rows.append((session_id, seq, *keys))
                ciphertexts.append(sealed.tobytes())
                tags.append(tag)
            ring.release()
        if not rows:
            return []
        session_ids, seqs, _, taggers = zip(*rows)
        expected = frame_tags(taggers, session_ids, seqs, ciphertexts)
        opened = []
        for (session_id, seq, key, _), text, want, tag in zip(
                rows, ciphertexts, expected, tags):
            if not constant_time_eq(want, tag):
                self._auth_failures += 1
                continue
            keystream = cache.take(session_id, key, seq * size, size)
            opened.append((session_id, seq,
                           np.frombuffer(text, dtype=np.uint8) ^ keystream))
        return opened

    # --- client side ---------------------------------------------------

    def submit(self, handle: SessionHandle,
               fingerprint: np.ndarray) -> "int | Shed":
        """Seal one uint8 fingerprint into the ingress ring; return seq.

        A full (or fault-stalled) ingress ring raises in strict mode and
        returns a typed :class:`Shed` in graceful mode.  The slot is
        reserved first and the sequence number consumed only once that
        succeeded, so a shed request leaves no pending state behind,
        draws no keystream, and can be resubmitted verbatim.
        """
        payload = self._request_payload(fingerprint)
        slot = self._ingress_prod.try_reserve()
        if slot is None:
            return self._refuse(Shed(handle.session_id, _RING_FULL))
        seq = handle.next_seq
        handle.next_seq += 1
        ciphertexts, tags = self._seal(
            self._client_keystreams, payload[np.newaxis],
            [(handle.session_id, seq, handle.request_key,
              handle.request_tagger)])
        self._emit(self._ingress_prod, "serve.ingress", slot,
                   handle.session_id, seq, ciphertexts[0], tags[0])
        handle.pending[seq] = self.clock.now_ms
        return seq

    def submit_many(self, pairs) -> list:
        """Seal many ``(handle, fingerprint)`` pairs in one pass: the
        batched client mux.  Returns one verdict per request, an ``int``
        seq or (graceful mode) a :class:`Shed`.  The payloads share one
        :meth:`_seal` (a keystream XOR each, one tag sweep); the frames
        are byte-identical to :meth:`submit`'s.

        Requests beyond the ingress ring's free space are shed up front
        without consuming a seq, like :meth:`submit`.  A reservation
        that still fails mid-batch (an injected ``ring.reserve`` stall)
        sheds just that request and *burns* its seq: the keystream
        positions are never used, which is safe for CTR discipline, and
        no pending state is created.  Strict mode raises instead.
        """
        checked = [(handle, self._request_payload(fingerprint))
                   for handle, fingerprint in pairs]
        free = self.config.ring_slots - 1 - len(self._ingress_prod)
        accept = min(len(checked), max(free, 0))
        # Refused before anything is sealed, so strict mode raises with
        # no seq consumed.
        tail = [self._refuse(Shed(handle.session_id, _RING_FULL))
                for handle, _ in checked[accept:]]
        if not accept:
            return tail
        checked = checked[:accept]
        payloads = np.empty((accept, self.request_bytes), dtype=np.uint8)
        rows = []
        for index, (handle, payload) in enumerate(checked):
            payloads[index] = payload
            rows.append((handle.session_id, handle.next_seq,
                         handle.request_key, handle.request_tagger))
            handle.next_seq += 1
        ciphertexts, tags = self._seal(self._client_keystreams, payloads,
                                       rows)
        verdicts: list = []
        for (handle, _), (session_id, seq, _, _), ciphertext, tag in zip(
                checked, rows, ciphertexts, tags):
            slot = self._ingress_prod.try_reserve()
            if slot is None:
                verdicts.append(self._refuse(Shed(session_id, _RING_FULL)))
                continue
            self._emit(self._ingress_prod, "serve.ingress", slot,
                       session_id, seq, ciphertext, tag)
            handle.pending[seq] = self.clock.now_ms
            verdicts.append(seq)
        return verdicts + tail

    def poll_responses(self) -> int:
        """Client mux: drain, verify and open responses (see
        :meth:`_drain`) into their sessions' futures; returns how many
        were delivered."""
        opened = self._drain(self._egress_cons, self._client_lane,
                             self._client_keystreams, self.response_bytes)
        for session_id, seq, payload in opened:
            handle = self._handles[session_id]
            label = int(payload[0])
            scores = payload[1:].copy().view(np.int8)
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
        return len(opened)

    # --- service side: the serving loop's seam ------------------------

    def _refuse(self, verdict: "Shed | Rejected") -> "Shed | Rejected":
        """Strict mode raises with the verdict's reason; graceful mode
        counts the refusal and hands the typed verdict back."""
        if self.config.strict:
            raise ServeError(verdict.reason)
        self._requests_shed += 1
        return verdict

    def ingest(self, sink) -> None:
        """Drain the ingress ring into ``sink`` (the loop's admission
        router): every frame is verified before it is opened (see
        :meth:`_drain`), and each opened request goes in as
        (session_id, seq, fingerprint)."""
        for session_id, seq, payload in self._drain(
                self._ingress_cons, lambda sid: self._service_lane(sid, 0),
                self._service_keystreams, self.request_bytes):
            sink((session_id, seq, payload.reshape(self.fingerprint_shape)))

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
            if self.pool.restarts >= self.config.max_worker_restarts:
                raise ServeError(
                    f"worker crash-loop: {self.pool.restarts} restarts "
                    f"reached max_worker_restarts="
                    f"{self.config.max_worker_restarts}") from exc
            self.pool.restart_worker(worker)
            return
        live, rows = [], []
        for index, (session_id, seq, _) in enumerate(batch):
            lane = self._service_lane(session_id, 1)
            if lane is None:
                # Session closed while its request was in flight:
                # there is no one to seal for — drop this response,
                # keep the rest of the batch.
                self._responses_dropped["session_closed"] += 1
                continue
            live.append(index)
            rows.append((session_id, seq, *lane))
        if not rows:
            return
        payloads = np.empty((len(rows), self.response_bytes), dtype=np.uint8)
        payloads[:, 0] = np.asarray(labels)[live]
        payloads[:, 1:] = np.asarray(scores, dtype=np.int8)[live].view(
            np.uint8)
        ciphertexts, tags = self._seal(self._service_keystreams, payloads,
                                       rows)
        for (session_id, seq, _, _), ciphertext, tag in zip(rows, ciphertexts,
                                                            tags):
            slot = self._egress_prod.try_reserve()
            if slot is None:
                # The loop checked room per batch, so a genuine full here
                # is unreachable — but an injected ring.reserve stall can
                # land on this reservation.  The inference already ran;
                # raising now would lose the whole batch's responses.
                # Drop just this one, accounted, and seal the rest.
                self._responses_dropped["egress_stall"] += 1
                continue
            self._emit(self._egress_prod, "serve.egress", slot, session_id,
                       seq, ciphertext, tag)

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
        """The structured health snapshot (see :class:`ServingStats`),
        read from the service and its attached loop."""
        percentiles = self.latency_percentiles()
        loop = self._loop
        queues = loop.queues.values()
        return ServingStats(
            requests_completed=self._requests_completed,
            frames_dropped=self._frames_dropped,
            responses_dropped=sum(self._responses_dropped.values()),
            auth_failures=self._auth_failures,
            requests_shed=self._requests_shed,
            admission_shed=sum(loop.admission.shed.values()),
            batches=sum(queue.batches for queue in queues),
            full_batches=sum(queue.full_batches for queue in queues),
            deadline_flushes=sum(queue.deadline_flushes for queue in queues),
            watchdog_flushes=loop.watchdog_flushes,
            workers_restarted=self.pool.restarts,
            batches_requeued=self._batches_requeued,
            open_sessions=len(self._handles),
            queue_depth=loop.queue_depth() + loop.mailbox_depth(),
            p50_ms=percentiles["p50_ms"],
            p95_ms=percentiles["p95_ms"],
            p99_ms=percentiles["p99_ms"],
        )

    def samples(self):
        """Every serving counter and gauge, read from the tallies that
        back :meth:`stats` — the collector the
        :class:`~repro.serve.loop.ServingLoop` registers with the
        telemetry registry (see :meth:`repro.obs.MetricsRegistry.register`),
        so an export can never disagree with the service."""
        stats = self.stats()
        loop = self._loop
        queues = loop.queues
        opened = self._next_session
        caches = self._keystream_caches
        for name, help, value in (
            ("omg_serve_sessions_opened_total",
             "serving sessions established", opened),
            ("omg_serve_sessions_closed_total",
             "serving sessions torn down", opened - stats.open_sessions),
            ("omg_serve_responses_total",
             "responses delivered to sessions", stats.requests_completed),
            ("omg_serve_auth_failures_total",
             "frames dropped on tag verification failure",
             stats.auth_failures),
            ("omg_serve_requests_shed_total",
             "requests/sessions refused with a typed backpressure verdict",
             stats.requests_shed),
            ("omg_serve_frames_dropped_total",
             "ring frames dropped for unknown/closed sessions",
             stats.frames_dropped),
            ("omg_serve_batches_requeued_total",
             "in-flight batches requeued after a worker panic",
             stats.batches_requeued),
            ("omg_serve_workers_restarted_total",
             "panicked enclave workers relaunched and re-attested",
             stats.workers_restarted),
            ("omg_serve_watchdog_flushes_total",
             "batches force-flushed past the watchdog deadline",
             stats.watchdog_flushes),
            ("omg_keystream_cache_hits_total",
             "keystream chunk reads served from held keystream",
             sum(cache.hits for cache in caches)),
            ("omg_keystream_cache_misses_total",
             "keystream chunk reads that ran CTR",
             sum(cache.misses for cache in caches)),
            ("omg_keystream_blocks_total",
             "keystream blocks generated by CTR runs (pads and tag masks)",
             sum(cache.blocks for cache in caches)),
        ):
            yield "counter", name, help, {}, value
        for reason, count in self._responses_dropped.items():
            yield ("counter", "omg_serve_responses_dropped_total",
                   "responses dropped after inference, by reason",
                   {"reason": reason}, count)
        for priority, count in loop.admission.shed.items():
            yield ("counter", "omg_serve_admission_rejections_total",
                   "post-ingest admissions refused by class budget",
                   {"priority": priority.name.lower()}, count)
        for worker in self.pool.workers:
            core = -1 if worker.core_id is None else worker.core_id
            yield ("counter", "omg_worker_requests_total",
                   "requests served, per pinned worker core",
                   {"core": core}, worker.requests)
        for name, help, value in (
            ("omg_serve_open_sessions", "currently open sessions",
             stats.open_sessions),
            ("omg_serve_batch_target",
             "adaptive batcher's current target size",
             queues[Priority.BATCH].max_batch),
            ("omg_serve_queue_interactive",
             "requests waiting in the interactive class",
             len(queues[Priority.INTERACTIVE])),
            ("omg_serve_queue_batch", "requests waiting in the batch class",
             len(queues[Priority.BATCH])),
            ("omg_serve_mailbox_depth",
             "requests formed into worker mailboxes", loop.mailbox_depth()),
            ("omg_serve_egress_occupancy",
             "frames waiting in the egress ring", len(self._egress_prod)),
        ):
            yield "gauge", name, help, {}, value

    def teardown(self) -> None:
        # Sessions still open keep their handles, so stats() and the
        # exported gauges go on agreeing with a snapshot taken before
        # teardown; their key material goes now.
        for handle in self._handles.values():
            self._scrub_session(handle)
        self.pool.teardown()
        state = _sanitizers.STATE
        if state is not None:
            state.rings.check_teardown()
            state.secrets.check_teardown(self.platform.soc)
