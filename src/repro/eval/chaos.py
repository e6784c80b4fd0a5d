"""Chaos harness: the end-to-end KWS pipeline under seeded fault storms.

Each schedule installs a :func:`~repro.faults.random_plan` for one seed
and drives the full OMG flow — platform bring-up, attestation,
provisioning over the reliable channel, keyword recognition, teardown —
with bounded crash recovery.  Two invariants are checked for every seed:

* **liveness** — the run either completes or fails with a *typed*
  :class:`~repro.errors.ReproError`; no hangs, no bare exceptions
  escaping the resilience layers;
* **safety** — no model plaintext and no recognition-input bytes are
  ever observable outside the enclave (untrusted flash, or resident
  DRAM not covered by a live TZASC lock), and no license request is
  double-spent no matter how often the lossy channel retransmits.
  Every schedule runs under :meth:`~repro.sanitizers.Sanitizers.full`
  and ends with its one leak sweep; any sanitizer finding is unsafe.

Because every source of randomness (fault triggers, corruption bits,
backoff jitter, attestation challenges) is DRBG-seeded and time is a
virtual clock, a schedule's fault transcript is bit-for-bit reproducible
from its seed — the transcripts are the debugging artifact CI uploads.

The harness has three layers, selected with ``--layer``:

* ``device`` (default) — the original single-device pipeline above,
  under :func:`~repro.faults.random_plan`.
* ``serve`` — multi-session batched traffic through a
  :class:`~repro.serve.ServingService` under
  :func:`~repro.faults.random_serve_plan` (ring frame corruption, ring
  stalls, scheduler deadline skew, keystream-cache drops, worker-enclave
  panics).  On top of liveness and the leak sweep, the serving layer
  checks *exactly-once delivery*: every accepted sequence number ends as
  exactly one response or one typed, counted loss — never a duplicate,
  never silently missing.
* ``fleet`` — a sharded enrollment storm through the
  :class:`~repro.fleet.FleetDirector` under
  :func:`~repro.faults.random_fleet_plan` (dropped enrollment legs,
  shard crashes, torn journal appends).  The fleet layer checks
  *single-spend across shards*: after crash recovery and reconcile,
  every device holds at most one live license fleet-wide; every shard's
  hash-chained audit trail verifies offline; and no tenant content key,
  cohort ticket key, or wrap secret appears in journal media or audit
  records.

Run standalone::

    PYTHONPATH=src python -m repro.eval.chaos --seeds 20 --out chaos-out
    PYTHONPATH=src python -m repro.eval.chaos --layer serve --seeds 20
    PYTHONPATH=src python -m repro.eval.chaos --layer fleet --seeds 20
"""

from __future__ import annotations

import argparse
import json
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.channels import (ReliableRequester, ReliableResponder,
                                 SecureChannel)
from repro.core.omg import KeywordSpotterApp
from repro.core.parties import Vendor
from repro.core.protocol import DEFAULT_STEP_TIMEOUTS, ProtocolTranscript
from repro.core.provisioning import ProvisioningClient, VendorServer
from repro.core.retry import BackoffPolicy
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg
from repro.errors import ProtocolError, ReproError, SanitizerViolation
from repro.faults import (FaultPlan, installed, random_fleet_plan,
                          random_plan, random_serve_plan)
from repro.obs import hooks as _obs
from repro.sanctuary.lifecycle import (EnclaveState, SanctuaryRuntime)
from repro.sanitizers import Sanitizers
from repro.sanitizers import hooks as _sanitizer_hooks
from repro.serve import (Priority, ServeConfig, ServingLoop, ServingService,
                         Shed)
from repro.trustzone import make_platform

__all__ = ["ChaosResult", "run_chaos_schedule", "write_chaos_transcripts",
           "default_chaos_model", "ServeChaosResult",
           "run_serve_chaos_schedule", "FleetChaosResult",
           "run_fleet_chaos_schedule"]

_HEAP_BYTES = 1 << 20
_KEY_BITS = 768
_VENDOR_SEED = b"vendor-seed"
_MAX_RECOVERIES = 3               # device: crash-recovery relaunches
_RECOGNITIONS = 3                 # device: inputs classified per schedule
_SERVE_SESSIONS = 3
_REQUESTS_PER_SESSION = 7
_FLEET_SHARDS = 3
_COHORTS_PER_TENANT = 2


@dataclass
class _ScheduleResult:
    """What every chaos layer reports for one seeded schedule.

    Each layer adds its own counters (rendered by :meth:`_counter_lines`
    between the shared transcript head and the rules) and its own
    sections (:meth:`_sections`, after the faults fired).
    """

    _title = "chaos schedule"

    seed: int
    completed: bool = False
    error: str | None = None          # typed error class name, if any
    error_message: str = ""
    untyped: bool = False             # liveness violation: non-ReproError
    rules: list[str] = field(default_factory=list)
    fault_lines: list[str] = field(default_factory=list)
    safety_violations: list[str] = field(default_factory=list)

    @property
    def live(self) -> bool:
        """Liveness invariant: completed, or failed with a typed error."""
        return self.completed or (self.error is not None and not self.untyped)

    @property
    def safe(self) -> bool:
        """Safety invariant: no violation recorded."""
        return not self.safety_violations

    def _counter_lines(self) -> list[str]:
        return []

    def _sections(self) -> list[str]:
        return []

    def transcript(self) -> str:
        """Human-readable per-seed artifact (uploaded by the CI job)."""
        lines = [
            f"{self._title} seed={self.seed}",
            f"completed={self.completed} live={self.live} safe={self.safe}",
            f"error={self.error or '-'} {self.error_message}".rstrip(),
            *self._counter_lines(),
            "rules:",
            *(f"  {rule}" for rule in self.rules),
            "faults fired:",
            *(f"  {line}" for line in self.fault_lines),
            *self._sections(),
        ]
        if self.safety_violations:
            lines.append("SAFETY VIOLATIONS:")
            lines.extend(f"  {v}" for v in self.safety_violations)
        return "\n".join(lines) + "\n"


@dataclass
class ChaosResult(_ScheduleResult):
    """Outcome of one seeded device chaos schedule: nothing leaked,
    nothing double-spent."""

    rounds: int = 0                   # provisioning rounds across sessions
    recoveries: int = 0               # crash-recovery relaunches used
    attempts: int = 0                 # channel request attempts (retries incl.)
    replays: int = 0                  # deduplicated retransmissions
    recognitions: list[str] = field(default_factory=list)
    key_requests: dict[str, int] = field(default_factory=dict)

    def _counter_lines(self) -> list[str]:
        return [f"rounds={self.rounds} recoveries={self.recoveries} "
                f"attempts={self.attempts} replays={self.replays}",
                f"recognitions={','.join(self.recognitions) or '-'}"]

    def _sections(self) -> list[str]:
        if not self.key_requests:
            return []
        return ["license key requests:",
                *(f"  {eid}: {n}"
                  for eid, n in sorted(self.key_requests.items()))]


def default_chaos_model():
    """A miniature int8 conv/FC/softmax KWS model (fast to provision)."""
    from repro.tflm.model import Model, ModelMetadata
    from repro.tflm.ops.conv import Conv2D
    from repro.tflm.ops.fully_connected import FullyConnected
    from repro.tflm.ops.softmax import (SOFTMAX_OUTPUT_SCALE,
                                        SOFTMAX_OUTPUT_ZERO_POINT, Softmax)
    from repro.tflm.quantize import choose_weight_qparams
    from repro.tflm.tensor import QuantParams, TensorSpec

    rng = np.random.default_rng(11)
    height, width, classes = 8, 6, 4
    conv_w = rng.normal(0, 0.4, size=(3, 3, 3, 1))
    conv_b = rng.normal(0, 0.1, size=3)
    oh, ow = -(-height // 2), -(-width // 2)
    fc_w = rng.normal(0, 0.3, size=(classes, oh * ow * 3))
    fc_b = rng.normal(0, 0.1, size=classes)

    input_q = QuantParams(scale=1 / 255.0, zero_point=-128)
    conv_w_q = choose_weight_qparams(conv_w)
    conv_out_q = QuantParams(scale=0.02, zero_point=-80)
    fc_w_q = choose_weight_qparams(fc_w)

    model = Model(metadata=ModelMetadata(
        name="chaos-kws", version=1,
        labels=tuple(f"kw{i}" for i in range(classes))))
    model.add_tensor(TensorSpec("input", (1, height, width, 1), "int8",
                                input_q))
    model.add_tensor(TensorSpec("conv_w", conv_w.shape, "int8", conv_w_q),
                     conv_w_q.quantize(conv_w))
    bias_scale = input_q.scale * conv_w_q.scale
    model.add_tensor(TensorSpec("conv_b", (3,), "int32",
                                QuantParams(bias_scale, 0)),
                     np.round(conv_b / bias_scale).astype(np.int32))
    model.add_tensor(TensorSpec("conv_out", (1, oh, ow, 3), "int8",
                                conv_out_q))
    model.add_tensor(TensorSpec("fc_w", fc_w.shape, "int8", fc_w_q),
                     fc_w_q.quantize(fc_w))
    fc_bias_scale = conv_out_q.scale * fc_w_q.scale
    model.add_tensor(TensorSpec("fc_b", (classes,), "int32",
                                QuantParams(fc_bias_scale, 0)),
                     np.round(fc_b / fc_bias_scale).astype(np.int32))
    model.add_tensor(TensorSpec("logits", (1, classes), "int8",
                                QuantParams(0.1, 0)))
    model.add_tensor(TensorSpec(
        "probs", (1, classes), "int8",
        QuantParams(SOFTMAX_OUTPUT_SCALE, SOFTMAX_OUTPUT_ZERO_POINT)))
    model.add_operator(Conv2D(["input", "conv_w", "conv_b"], ["conv_out"],
                              {"stride": (2, 2), "padding": "same",
                               "activation": "relu"}))
    model.add_operator(FullyConnected(["conv_out", "fc_w", "fc_b"],
                                      ["logits"], {}))
    model.add_operator(Softmax(["logits"], ["probs"], {}))
    model.inputs = ["input"]
    model.outputs = ["probs"]
    model.validate()
    return model


_WARMED: set[tuple[int, int]] = set()


def _warm_key_cache(key_bits: int, enclave_count: int) -> None:
    """Pre-generate every RSA key a schedule can touch, before any plan.

    Key generation is memoized process-wide (:mod:`repro.crypto.keycache`),
    so whether its DRBG draws happen inside a schedule depends on cache
    state — which would make fault op-counters differ between a cold and
    a warm process.  Warming the cache *outside* the installed plan pins
    the instrumented-operation sequence, so equal seeds always produce
    equal transcripts.
    """
    if (key_bits, enclave_count) in _WARMED:
        return
    platform = make_platform(key_bits=key_bits)
    trusted_os = platform.secure_world.trusted_os
    for _ in range(enclave_count):
        trusted_os.invoke("keymaster", "issue_enclave_key",
                          enclave_name="chaos-warmup")
    deterministic_keypair(_VENDOR_SEED + b"|vendor-key", key_bits)
    _WARMED.add((key_bits, enclave_count))


@contextmanager
def _sanitized(result: _ScheduleResult):
    """Run the with-body under a full sanitizer bundle and yield its
    :class:`~repro.sanitizers.SecretSanitizer` (the schedule's secrets
    and its one leak sweep).  A :class:`~repro.errors.SanitizerViolation`
    anywhere in the body (stack build, drive, sweep) stops it and is a
    safety violation, never an ``error``.
    """
    bundle = Sanitizers.full()
    try:
        with _sanitizer_hooks.installed(bundle):
            yield bundle.secrets
    except SanitizerViolation as exc:
        result.safety_violations.append(str(exc))


@contextmanager
def _fault_envelope(result: _ScheduleResult, plan: FaultPlan,
                    span_name: str, span_attributes=dict):
    """Run the with-body under ``plan`` and classify how it ended.

    The body sets ``result.completed`` itself; a typed
    :class:`~repro.errors.ReproError` is recorded as ``error``, any
    other exception as an untyped liveness violation — neither escapes.
    A :class:`~repro.errors.SanitizerViolation` does escape, to
    :func:`_sanitized`, which records it as a safety violation.
    Afterwards ``result.fault_lines`` holds the plan transcript, and a
    fault-tagged span (every fired fault a span event, so a trace shows
    *when* each struck) is emitted when telemetry is installed, with
    ``span_attributes()`` added to its closing attributes.
    """
    span = None
    if _obs.TELEMETRY is not None:
        span = _obs.TELEMETRY.tracer.start_span(
            span_name, attributes={"seed": result.seed,
                                   "rules": len(plan.rules)})
    try:
        with installed(plan):
            try:
                yield
            except SanitizerViolation:
                raise  # a safety finding: _sanitized records it
            except Exception as exc:  # noqa: BLE001 — classified, not raised
                result.error = type(exc).__name__
                result.error_message = str(exc)
                result.untyped = not isinstance(exc, ReproError)
    finally:
        result.fault_lines = plan.transcript_lines()
        if span is not None:
            for line in result.fault_lines:
                span.add_event("fault", detail=line)
            span.set_attributes(
                completed=result.completed, error=result.error or "",
                faults=len(result.fault_lines), **span_attributes())
            span.end()


class _ChaosSession:
    """One enclave session: launch/recover, provision, recognize."""

    def __init__(self, platform, runtime, vendor, app, seed: int,
                 secrets) -> None:
        self.platform = platform
        self.runtime = runtime
        self.vendor = vendor
        self.app = app
        self.seed = seed
        self.secrets = secrets
        self.clock = platform.soc.clock
        self.instance = None
        self.sessions = 0
        self._provisioned_for = None  # instance the model is unlocked for

    def _new_client(self) -> ProvisioningClient:
        """Fresh channel + vendor server + client for one session."""
        self.sessions += 1
        tag = f"{self.seed}:{self.sessions}".encode()
        channel_rng = HmacDrbg(b"chaos-channel|" + tag)
        enclave_end, key_exchange = SecureChannel.connect(
            self.vendor.public_key, channel_rng)
        vendor_end = SecureChannel.accept(self.vendor.signing_key,
                                          key_exchange)
        server = VendorServer(
            self.vendor, SanctuaryRuntime.expected_measurement(self.app),
            self.platform.manufacturer_root.public_key, self.clock)
        responder = self._responder = ReliableResponder(vendor_end,
                                                        server.handle)
        requester = ReliableRequester(
            enclave_end, self.clock, BackoffPolicy(),
            backoff_rng=HmacDrbg(b"chaos-backoff|" + tag))
        return ProvisioningClient(
            self.app, self.instance, requester, responder.handle_frame,
            self.clock,
            transcript=ProtocolTranscript(timeouts=DEFAULT_STEP_TIMEOUTS),
            nonce_rng=HmacDrbg(b"chaos-nonce|" + tag))

    def provision(self, result: ChaosResult) -> None:
        if self.instance is None:
            self.instance = self.runtime.launch(self.app,
                                                heap_bytes=_HEAP_BYTES)
        client = self._new_client()
        try:
            client.run()
            self._provisioned_for = self.instance
        finally:
            result.rounds += client.rounds
            result.attempts += client.requester.attempts
            result.replays += self._responder.replays

    def needs_provisioning(self) -> bool:
        """A fresh or recovered enclave re-runs Fig. 2 steps 2-6; a
        merely suspended one resumes on the next invoke."""
        return self.instance is None or self.instance is not self._provisioned_for

    def recognize(self, index: int) -> str:
        """Ping through the untrusted mailbox, then classify one input."""
        pong = self.instance.invoke(b"P")
        if not pong.startswith(b"PONG:"):
            raise ProtocolError(f"malformed ping response {pong!r}")
        shape = self.app.interpreter.model.tensors[
            self.app.interpreter.model.inputs[0]].shape
        rng = np.random.default_rng(self.seed * 7919 + index)
        fingerprint = rng.integers(
            0, 256, size=(shape[1], shape[2]), dtype=np.uint8)
        self.secrets.on_observe(fingerprint,
                                origin=f"recognition input {index}")
        label = self.app.recognize_fingerprint(
            self.instance.ctx, fingerprint).label
        if index % 2 == 1:
            # Exercise the suspend/resume path (and its fault window);
            # the next invoke resumes on a fresh core.
            self.instance.suspend()
        return label

    def after_failure(self) -> None:
        """Fail-closed recovery: scrub-audit + re-attest, or refuse."""
        instance, self.instance = self.instance, None
        if instance is None:
            crashed = self.runtime.crashed
            if not crashed or crashed[-1].state is not EnclaveState.TORN_DOWN:
                return  # failed before an enclave existed: plain relaunch
            instance = crashed[-1]
        elif instance.state is EnclaveState.ACTIVE:
            # Session is poisoned (e.g. corrupted code image): tear it
            # down — which itself verifies the scrub — before relaunch.
            instance.teardown()
        self.instance = self.runtime.recover(instance)


def run_chaos_schedule(seed: int, model=None) -> ChaosResult:
    """Run the full pipeline under ``random_plan(seed)``; never hang.

    Returns a :class:`ChaosResult` whose ``live``/``safe`` properties are
    the invariants ``tests/test_chaos_e2e.py`` asserts for every seed.
    """
    if model is None:
        model = default_chaos_model()
    _warm_key_cache(_KEY_BITS, _MAX_RECOVERIES + 2)
    plan = random_plan(seed)
    result = ChaosResult(seed=seed, rules=[repr(rule) for rule in plan.rules])
    with _sanitized(result) as secrets:
        session = None
        with _fault_envelope(result, plan, "chaos.schedule",
                             lambda: {"recoveries": result.recoveries}):
            platform = make_platform(key_bits=_KEY_BITS)
            runtime = SanctuaryRuntime(platform)
            vendor = Vendor("chaos-vendor", model, seed=_VENDOR_SEED,
                            key_bits=_KEY_BITS)
            session = _ChaosSession(platform, runtime, vendor,
                                    KeywordSpotterApp(), seed, secrets)
            while True:
                try:
                    if session.needs_provisioning():
                        session.provision(result)
                    while len(result.recognitions) < _RECOGNITIONS:
                        result.recognitions.append(
                            session.recognize(len(result.recognitions)))
                    session.instance.panic()  # clean, scrub-verified exit
                    result.completed = True
                    break
                except ReproError as exc:
                    if (isinstance(exc, SanitizerViolation)
                            or result.recoveries >= _MAX_RECOVERIES):
                        raise
                    result.recoveries += 1
                    session.after_failure()

        if session is not None:
            for instance in runtime.instances + runtime.crashed:
                enclave_id = instance.instance_name
                try:
                    state = vendor.license_state(enclave_id)
                except ReproError:
                    continue  # never attested: no license to audit
                result.key_requests[enclave_id] = state.key_requests
                if state.key_requests > 1:
                    result.safety_violations.append(
                        f"license double-spend: {enclave_id} consumed "
                        f"{state.key_requests} key requests")
            # The leak sweep over everything the normal world can
            # observe: the decrypted model (observed at provisioning)
            # and every recognition input.
            secrets.check_teardown(platform.soc)
    return result


@dataclass
class ServeChaosResult(_ScheduleResult):
    """Outcome of one seeded *serving* chaos schedule.

    The exactly-once ledger is the heart of it: every accepted sequence
    number must end as exactly one delivered response or be covered by
    exactly one counted loss (``auth_failures`` + ``frames_dropped`` +
    ``responses_dropped`` + ``admission_shed``) — duplicates and silent
    losses both fail the schedule.
    """

    _title = "serve chaos schedule"

    sessions: int = 0
    accepted: int = 0                 # submits that consumed a seq
    shed: int = 0                     # typed backpressure verdicts seen
    delivered: int = 0                # distinct responses completed
    missing: int = 0                  # accepted seqs with no response
    counted_losses: int = 0           # auth + frame + response drops
    duplicates: int = 0               # completions beyond distinct seqs
    stats: dict = field(default_factory=dict)   # frozen ServingStats

    def _counter_lines(self) -> list[str]:
        return [f"sessions={self.sessions} accepted={self.accepted} "
                f"shed={self.shed} delivered={self.delivered}",
                f"missing={self.missing} "
                f"counted_losses={self.counted_losses} "
                f"duplicates={self.duplicates}"]

    def _sections(self) -> list[str]:
        return ["serving stats:",
                *(f"  {key}={value}"
                  for key, value in sorted(self.stats.items()))]


def run_serve_chaos_schedule(seed: int) -> ServeChaosResult:
    """Drive batched multi-session traffic under ``random_serve_plan``.

    The serving stack (platform, vendor, worker pool, sessions) is
    built *outside* the installed plan — serving fault sites count only
    serving operations, so the schedule's transcript is bit-for-bit
    reproducible from the seed regardless of process-wide caches — but
    inside the sanitizers, since lane keys are drawn at
    ``open_session``.  The service runs in graceful (``strict=False``)
    mode under the async :class:`~repro.serve.ServingLoop` (the
    production drive): ring-full paths shed with typed verdicts,
    worker panics recover via re-attested relaunch with the batch
    requeued to its class queue, and the loop's watchdog rescues
    skew-stalled batches.  Sessions
    alternate interactive/batch priority so both class queues (and the
    admission gate between them) sit inside the blast radius.
    """
    plan = random_serve_plan(seed)
    result = ServeChaosResult(seed=seed,
                              rules=[repr(rule) for rule in plan.rules])
    with _sanitized(result) as secrets:
        platform = make_platform(key_bits=_KEY_BITS)
        vendor = Vendor("serve-chaos-vendor", default_chaos_model(),
                        seed=_VENDOR_SEED, key_bits=_KEY_BITS)
        config = ServeConfig(max_batch=4, deadline_ms=2.0, ring_slots=8,
                             num_workers=2, strict=False, watchdog_ms=12.0)
        service = ServingService(platform, vendor, config)
        loop = ServingLoop(service, tick_ms=0.75)
        handles = [service.open_session(
            priority=Priority.INTERACTIVE if index % 2 == 0
            else Priority.BATCH)
            for index in range(_SERVE_SESSIONS)]
        result.sessions = len(handles)
        clock = platform.soc.clock

        # Deterministic per-seed traffic, round-robined across sessions
        # so every batch mixes sessions (per-session key isolation under
        # fire).  Every request plaintext is a secret the sweep hunts.
        rng = np.random.default_rng(seed * 6007 + 13)
        traffic: deque = deque()
        for _ in range(_REQUESTS_PER_SESSION):
            for index in range(_SERVE_SESSIONS):
                fingerprint = rng.integers(
                    0, 256, size=service.fingerprint_shape, dtype=np.uint8)
                secrets.on_observe(fingerprint,
                                   origin=f"serve input {len(traffic)}")
                traffic.append((index, fingerprint))

        accepted: dict[int, set] = {h.session_id: set() for h in handles}
        with _fault_envelope(result, plan, "chaos.serve_schedule",
                             lambda: {"restarts": service.pool.restarts,
                                      "shed": result.shed}):
            iterations = 0
            while traffic and iterations < 400:
                iterations += 1
                index, fingerprint = traffic[0]
                verdict = service.submit(handles[index], fingerprint)
                if isinstance(verdict, Shed):
                    # Typed backpressure: drain and retry the same
                    # request — nothing was consumed.
                    result.shed += 1
                else:
                    traffic.popleft()
                    accepted[handles[index].session_id].add(verdict)
                    result.accepted += 1
                loop.tick()
                clock.advance_ms(0.75)
            # Drain: anything still queued (sub-deadline leftovers,
            # requeued batches, deferred mailboxes) flushes here; each
            # tick polls the egress ring so force-flushes always find
            # room.
            for _ in range(8):
                loop.tick(force=True)
                clock.advance_ms(1.0)
            result.completed = not traffic
            if traffic:
                result.error = "ServeError"
                result.error_message = (
                    f"{len(traffic)} requests still shed after the "
                    f"drive-loop budget — wedged ingress")

        stats = service.stats()
        result.stats = asdict(stats)

        # Exactly-once ledger over the accepted sequence numbers.
        delivered = 0
        missing = 0
        for handle in handles:
            got = set(handle.results)
            want = accepted[handle.session_id]
            delivered += len(got & want)
            missing += len(want - got)
            for seq in got - want:
                result.safety_violations.append(
                    f"session {handle.session_id}: response for seq "
                    f"{seq} that was never accepted")
        result.delivered = delivered
        result.missing = missing
        result.counted_losses = (stats.auth_failures + stats.frames_dropped
                                 + stats.responses_dropped
                                 + stats.admission_shed)
        # requests_completed beyond the distinct results means some seq
        # was delivered more than once (the second write overwrites the
        # dict).
        result.duplicates = max(0, stats.requests_completed - delivered)
        if result.duplicates:
            result.safety_violations.append(
                f"{result.duplicates} duplicate response deliveries")
        if result.completed and missing != result.counted_losses:
            result.safety_violations.append(
                f"exactly-once violation: {missing} accepted seqs missing "
                f"but {result.counted_losses} losses counted")
        if (result.completed
                and any("worker.invoke" in line
                        for line in result.fault_lines)
                and stats.workers_restarted < 1):
            result.safety_violations.append(
                "worker panic fired but no re-attested restart happened")

        # Teardown (tolerates panicked workers) scrubs the sessions
        # still open and runs the leak sweep: the model plaintext and
        # the raw fingerprints must be nowhere outside locked or
        # scrubbed enclave memory — the rings only ever carried sealed
        # bytes.
        service.teardown()
    return result


@dataclass
class FleetChaosResult(_ScheduleResult):
    """Outcome of one seeded *fleet* chaos schedule.

    The cross-shard single-spend check is the heart of it: failover can
    legitimately journal a device's grant on more than one shard, but
    after every crashed shard has replayed its journal and the director
    has reconciled, each device must hold at most one live license
    fleet-wide — and every shard's hash-chained audit trail must still
    verify offline.  ``completed`` means every device reached a terminal
    state.
    """

    _title = "fleet chaos schedule"

    devices: int = 0
    granted: int = 0
    rejected: int = 0
    refused: int = 0
    stalled: int = 0
    retries: int = 0
    drops: int = 0
    takeovers: int = 0
    crashes: int = 0
    restarts: int = 0
    torn_drops: int = 0               # journal records dropped at recovery
    replays: int = 0                  # idempotent grant retransmissions
    duplicates_reconciled: int = 0    # stale cross-shard grants revoked
    journals: dict = field(default_factory=dict)  # per-shard counters
    audit_heads: dict = field(default_factory=dict)

    def _counter_lines(self) -> list[str]:
        return [f"devices={self.devices} granted={self.granted} "
                f"rejected={self.rejected} refused={self.refused} "
                f"stalled={self.stalled}",
                f"retries={self.retries} drops={self.drops} "
                f"takeovers={self.takeovers} crashes={self.crashes} "
                f"restarts={self.restarts}",
                f"torn_drops={self.torn_drops} replays={self.replays} "
                f"duplicates_reconciled={self.duplicates_reconciled}"]

    def _sections(self) -> list[str]:
        return ["journals:",
                *(f"  {shard}: " + " ".join(
                    f"{key}={value}" for key, value in sorted(row.items()))
                  for shard, row in sorted(self.journals.items())),
                "audit heads:",
                *(f"  {shard}: {head}"
                  for shard, head in sorted(self.audit_heads.items()))]


def run_fleet_chaos_schedule(seed: int, *,
                             devices: int = 240) -> FleetChaosResult:
    """Drive a sharded enrollment storm under ``random_fleet_plan``.

    The fleet (tenant trust anchors, pooled cohorts, shard ring) is
    built *outside* the installed plan, so fleet fault sites count only
    storm operations and the transcript is reproducible from the seed.
    Cohort labels fold the seed in, so each schedule gets distinct
    tickets, nonces, and arrival offsets while the tenants' RSA anchors
    stay process-cached across schedules.

    Checks, in order: liveness (the storm drains — every device
    terminal, since ``nth``-triggered rules exhaust their
    ``max_fires``); journal recovery accounting (every crashed shard
    replays, torn tails are dropped not half-applied); cross-shard
    single-spend after :meth:`~repro.fleet.FleetDirector.reconcile`;
    offline audit-chain verification per shard; and the leak sweep of
    the durable surfaces (journal media, audit records) for tenant
    content keys, cohort ticket keys, and derived wrap secrets.
    """
    from repro.fleet import DeviceFleet, FleetDirector
    from repro.fleet.population import TERMINAL_STATES
    from repro.hw.timing import VirtualClock

    plan = random_fleet_plan(seed)
    result = FleetChaosResult(seed=seed,
                              rules=[repr(rule) for rule in plan.rules])
    with _sanitized(result) as secrets:
        clock = VirtualClock()
        fleet = DeviceFleet(clock, key_bits=_KEY_BITS, seed=b"fleet-chaos")
        per_cohort = max(1, devices // (len(fleet.tenants)
                                        * _COHORTS_PER_TENANT))
        for tenant in fleet.tenants:
            for index in range(_COHORTS_PER_TENANT):
                fleet.build_cohort(tenant, f"{tenant}-s{seed}-c{index}",
                                   per_cohort)
        # The secrets no durable surface may carry.
        for name, config in fleet.tenants.items():
            secrets.on_observe(config.content_key,
                               origin=f"content key {name}")
            for cohort_id, credentials in config.cohorts.items():
                secrets.on_observe(credentials.ticket_key,
                                   origin=f"ticket key {cohort_id}")
                secrets.on_observe(credentials.wrap_base,
                                   origin=f"wrap base {cohort_id}")
        director = FleetDirector(
            clock, [f"shard-{index}" for index in range(_FLEET_SHARDS)],
            fleet.tenants)
        result.devices = fleet.device_count

        with _fault_envelope(result, plan, "chaos.fleet_schedule"):
            report = director.run_storm(fleet.cohorts, storm_seconds=0.5,
                                        max_seconds=60.0)
            result.granted = report.granted
            result.rejected = report.rejected
            result.refused = report.refused
            result.stalled = report.stalled
            result.retries = report.retries
            result.drops = report.drops
            result.takeovers = report.takeovers
            result.crashes = report.crashes
            result.restarts = report.restarts
            result.completed = all(
                state in TERMINAL_STATES
                for cohort in fleet.cohorts for state in cohort.state)
            if report.stalled and result.completed:
                result.safety_violations.append(
                    f"storm report counts {report.stalled} stalled devices "
                    f"but every device is terminal")

        # Crash recovery: any shard still dark replays its journal now,
        # so the invariant checks below see the durable state, not the
        # outage.
        for shard in director.shards.values():
            if not shard.up:
                recovery = shard.restart()
                result.restarts += 1
                if recovery.torn_bytes_dropped and not any(
                        "journal.append" in line
                        for line in result.fault_lines):
                    result.safety_violations.append(
                        f"{shard.shard_id}: dropped "
                        f"{recovery.torn_bytes_dropped} torn bytes "
                        f"without a torn-write fault")

        # Cross-shard single-spend: reconcile, then no device may appear
        # in more than one live journal (and a second reconcile must be
        # a fixed point — nothing left to revoke).
        result.duplicates_reconciled = director.reconcile()
        if director.reconcile() != 0:
            result.safety_violations.append(
                "reconcile is not a fixed point: duplicates survived a "
                "pass")
        holders: dict[str, list[str]] = {}
        for shard in director.shards.values():
            result.journals[shard.shard_id] = {
                "appends": shard.journal.appends,
                "replays": shard.journal.replays,
                "torn_drops": shard.journal.torn_drops,
                "compactions": shard.journal.compactions,
                "live": len(shard.journal.live),
            }
            result.torn_drops += shard.journal.torn_drops
            result.replays += shard.journal.replays
            for device in shard.journal.live:
                holders.setdefault(device, []).append(shard.shard_id)
        for device, shard_ids in sorted(holders.items()):
            if len(shard_ids) > 1:
                result.safety_violations.append(
                    f"single-spend violation: {device} holds live "
                    f"licenses on {', '.join(sorted(shard_ids))}")

        # Offline audit verification: every shard's hash chain must
        # check out from the records alone.
        for shard in director.shards.values():
            try:
                shard.audit.seal()
                result.audit_heads[shard.shard_id] = \
                    shard.audit.verify().hex()
            except ReproError as exc:
                result.safety_violations.append(
                    f"audit chain broken on {shard.shard_id}: {exc}")

        # The leak sweep over the durable surfaces: journal media and
        # audit records are exactly what an offline verifier (or a
        # stolen backup) sees.
        secrets.check_teardown(surfaces=[
            surface for shard in director.shards.values()
            for surface in (
                (f"{shard.shard_id} journal", shard.journal.media_bytes()),
                (f"{shard.shard_id} audit records",
                 b"\n".join(record.encode()
                            for record in shard.audit.records)))])
    return result


def write_chaos_transcripts(results: list[_ScheduleResult],
                            out_dir: str) -> str:
    """Write per-seed transcripts plus a summary.json; return the dir."""
    os.makedirs(out_dir, exist_ok=True)
    for result in results:
        path = os.path.join(out_dir, f"chaos-seed-{result.seed:04d}.txt")
        with open(path, "w") as handle:
            handle.write(result.transcript())
    summary = {
        "schedules": len(results),
        "completed": sum(r.completed for r in results),
        "typed_failures": sum(bool(r.error) and not r.untyped
                              for r in results),
        "liveness_violations": [r.seed for r in results if not r.live],
        "safety_violations": [r.seed for r in results if not r.safe],
        "total_faults_fired": sum(len(r.fault_lines) for r in results),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layer", choices=("device", "serve", "fleet"),
                        default="device",
                        help="device: single-device pipeline chaos; "
                             "serve: multi-session serving-stack chaos; "
                             "fleet: sharded enrollment-storm chaos")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of schedules (seeds 0..N-1)")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default="chaos-out",
                        help="directory for per-seed transcripts")
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        if args.layer == "fleet":
            result = run_fleet_chaos_schedule(seed)
            extra = (f"granted={result.granted}/{result.devices} "
                     f"reconciled={result.duplicates_reconciled} "
                     f"restarts={result.restarts}")
        elif args.layer == "serve":
            result = run_serve_chaos_schedule(seed)
            extra = (f"restarts={result.stats.get('workers_restarted', 0)}"
                     f" shed={result.shed}")
        else:
            result = run_chaos_schedule(seed)
            extra = f"recoveries={result.recoveries}"
        status = ("ok" if result.completed
                  else f"typed:{result.error}" if result.live
                  else f"LIVENESS:{result.error}")
        print(f"seed {seed:4d}  {status:30s} faults={len(result.fault_lines)}"
              f" {extra} safe={result.safe}")
        results.append(result)
    write_chaos_transcripts(results, args.out)
    bad = [r.seed for r in results if not (r.live and r.safe)]
    print(f"{len(results)} schedules, {sum(r.completed for r in results)} "
          f"completed, violations: {bad or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
