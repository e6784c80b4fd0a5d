"""The four benchmark workloads, each driven through public APIs.

Every workload follows one life cycle, driven by ``run.py``:

``setup()``
    Build the program state the workload needs: platform, vendor keys,
    enclaves or the fleet.  Key material comes from a seed fixed per
    workload, so set-up does the same work on every run.
``make_inputs()``
    Generate the traffic from the run's ``--seed``: arrivals,
    fingerprints, clip choice or device arrivals.  Not timed.
``drive()``
    The measured phase.  The amount of work is fixed by the seed and
    ``--seconds`` (a nominal host rate times the seconds), so two runs at
    one seed do the same work and give identical simulated metrics.
``check()``
    Verify the outputs; returns a list of failure messages.

Host wall-clock numbers measure the simulator; virtual-clock numbers
(``sim_*``) measure the modelled HiKey 960.  The two are kept apart.
Host time is reported in reference seconds: the phase's wall time
rescaled by the host speed sampled while it ran (see ``hostspeed``).
"""

from __future__ import annotations

import heapq
import zlib

import numpy as np

from hostspeed import HostMeter

# RSA modulus for every generated key, as in repro.eval.bench; 512-bit
# keys are too small for the OAEP transport of the session keys.
KEY_BITS = 768

# Virtual-clock latency limit for serving and keyword spotting: one
# 1 s utterance window.
REALTIME_LIMIT_MS = 1000.0

# Ops each workload sends per requested second.  Calibrated so the
# measured phase lasts about ``--seconds`` on a 2-core x86 host (the
# fleet storm's fixed per-wave costs make it run longer); the count, not
# the wall time, defines the work, so a faster program finishes sooner
# and a slower one later.
STEADY_REQUESTS_PER_S = 700
CHURN_SESSIONS_PER_S = 47
KWS_CLIPS_PER_S = 230
FLEET_DEVICES_PER_S = 1400


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    index = min(len(ordered) - 1,
                max(0, int(np.ceil(fraction * len(ordered))) - 1))
    return float(ordered[index])


class Workload:
    """Shared bookkeeping; subclasses implement the life cycle."""

    name = ""
    latency_limit_ms = REALTIME_LIMIT_MS

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        # Filled by drive(): per-op virtual latency (ms) and the phase's
        # wall and virtual extent.
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.sim_s = 0.0
        self.meter: HostMeter | None = None
        self.gen_late_ms: list[float] = []
        # Set for a traced phase; its request id follows the current op.
        self.tracer = None
        # Whether the measured phase samples host speed (see hostspeed).
        self.host_probes = True

    def _meter(self) -> HostMeter:
        """A meter for the measured phase; drive() runs inside it."""
        self.meter = HostMeter() if self.host_probes else HostMeter(None)
        return self.meter

    @property
    def wall_s(self) -> float:
        """Wall seconds of the measured phase, host probes excluded."""
        return self.meter.wall_s

    def end_to_end(self) -> dict[str, float]:
        completed = len(self.latencies_ms)
        within = sum(1 for v in self.latencies_ms
                     if v <= self.latency_limit_ms)
        return {
            "ops_per_s": completed / self.meter.reference_s,
            "sim_p50_ms": percentile(self.latencies_ms, 0.50),
            "sim_p99_ms": percentile(self.latencies_ms, 0.99),
            "sim_ops_per_s": completed / self.sim_s if self.sim_s else 0.0,
            "realtime_share": within / self.attempted,
            "served_share": completed / self.attempted,
        }

    def deterministic_counts(self) -> dict[str, float]:
        """Public counters that must repeat exactly at one seed."""
        return {}

    def layer_counts(self, counts) -> dict[str, float]:
        """Per-layer counts after a traced drive(): from public counters
        and from ``counts``, the tracer's wrapper tallies."""
        return {}

    def teardown(self) -> None:
        pass


# --- serving -------------------------------------------------------------

class _ServingWorkload(Workload):
    """Open-loop traffic into one ServingService + ServingLoop."""

    platform_seed = b""
    max_batch = 32

    def _build_service(self, session_capacity: int, chunk_bytes: int):
        from repro.core.parties import Vendor
        from repro.eval.pretrained import standard_model
        from repro.serve import ServeConfig, ServingLoop, ServingService
        from repro.trustzone.worlds import make_platform

        model, _ = standard_model()
        self.model = model
        self.platform = make_platform(seed=self.platform_seed,
                                      key_bits=KEY_BITS)
        vendor = Vendor("ml-vendor", model, seed=self.platform_seed
                        + b"|vendor", key_bits=KEY_BITS)
        self.service = ServingService(self.platform, vendor, ServeConfig(
            max_batch=self.max_batch, num_workers=2, ring_slots=256,
            session_capacity=session_capacity,
            keystream_chunk_bytes=chunk_bytes, strict=False))
        self.loop = ServingLoop(self.service, adaptive=True)
        self.clock = self.platform.soc.clock

    def _fingerprint_pool(self, size: int = 64) -> None:
        self.pool = self.rng.integers(0, 256, size=(size, 49, 43),
                                      dtype=np.uint8)
        # Responses seen per pool entry: every delivery must repeat it.
        self.outputs: dict[int, tuple[int, bytes]] = {}
        self.mismatches = 0

    def _deliver(self, pool_index: int, result) -> None:
        label, scores = result
        key = (int(label), np.asarray(scores, dtype=np.int8).tobytes())
        seen = self.outputs.setdefault(pool_index, key)
        if seen != key:
            self.mismatches += 1

    def check(self) -> list[str]:
        from repro.tflm.interpreter import Interpreter
        from repro.train.convert import fingerprint_to_int8

        errors = []
        if self.mismatches:
            errors.append(f"{self.mismatches} responses differ from the "
                          f"first response to the same fingerprint")
        reference = Interpreter(self.model, reference_kernels=True)
        sample = self.rng.choice(sorted(self.outputs),
                                 size=min(16, len(self.outputs)),
                                 replace=False)
        for index in sample:
            label, scores = reference.classify(
                fingerprint_to_int8(self.pool[index]))
            want = (int(label), np.asarray(scores, np.int8).tobytes())
            if self.outputs[int(index)] != want:
                errors.append(f"fingerprint {index}: response differs from "
                              f"the reference kernels")
        stats = self.service.stats()
        accounted = (stats.requests_completed + stats.frames_dropped
                     + stats.responses_dropped + stats.auth_failures
                     + stats.admission_shed)
        if accounted != self.accepted:
            errors.append(f"ledger: {self.accepted} accepted but "
                          f"{accounted} delivered or counted as lost")
        if stats.requests_completed != len(self.latencies_ms):
            errors.append("service completed count differs from the "
                          "deliveries the clients saw")
        return errors

    def deterministic_counts(self) -> dict[str, float]:
        stats = self.service.stats()
        return {
            "completed": stats.requests_completed,
            "batches": stats.batches,
            "full_batches": stats.full_batches,
            "deadline_flushes": stats.deadline_flushes,
            "requests_shed": stats.requests_shed,
            "admission_shed": stats.admission_shed,
            "ticks": self.loop.ticks,
            "invokes": sum(worker.session.app.interpreter.total_invokes
                           for worker in self.service.pool.workers),
        }

    def layer_counts(self, counts) -> dict[str, float]:
        stats = self.service.stats()
        admission = self.loop.admission
        admitted = sum(admission.admitted.values())
        shed = sum(admission.shed.values())
        return {
            "serve.requests_accepted": self.accepted,
            "serve.ticks": self.loop.ticks,
            "serve.batches": stats.batches,
            "serve.batch_fill": (counts["serve.batch_requests"]
                                 / stats.batches / self.max_batch),
            "serve.queue_depth_p50": percentile(self.queue_depths, 0.50),
            "serve.queue_depth_p99": percentile(self.queue_depths, 0.99),
            "serve.admission_accept_ratio": (admitted / (admitted + shed)
                                             if admitted + shed else 0.0),
            "serve.gen_late_ms_p99": percentile(self.gen_late_ms, 0.99),
        }

    def _drive(self, events, on_delivered) -> None:
        """Run ``events`` (sorted ``(due_ns, key)``, offsets from the
        phase start in virtual nanoseconds) open loop.

        ``self.submit_due(events, now_ns)`` submits what is due;
        ``on_delivered(now_ns)`` collects responses after every tick.
        The virtual clock jumps over idle gaps between arrivals.
        """
        clock, loop = self.clock, self.loop
        origin = clock.now_ns
        self.queue_depths: list[int] = []
        count = len(events)
        next_event = 0
        with self._meter():
            while next_event < count or loop.pending():
                now = clock.now_ns - origin
                due = next_event
                while due < count and events[due][0] <= now:
                    due += 1
                if due > next_event:
                    self.submit_due(events[next_event:due], now)
                    next_event = due
                elif not loop.pending():
                    clock.advance_ns(events[next_event][0] - now)
                    continue
                loop.tick()
                self.queue_depths.append(loop.queue_depth())
                on_delivered(clock.now_ns - origin)
                clock.advance_ms(loop.tick_ms)
        self.sim_s = (clock.now_ns - origin) / 1e9

    def teardown(self) -> None:
        self.service.teardown()


class ServeSteady(_ServingWorkload):
    """Four long-lived sessions under a fixed open-loop arrival rate."""

    name = "serve_steady"
    platform_seed = b"perfbench-serve-steady"
    # Above the batch-of-one capacity (~212 sim rps), below the
    # batch-of-32 capacity (~257 sim rps): queues form, batches grow.
    rate_rps = 240.0
    sessions = 4

    def setup(self) -> None:
        from repro.serve import Priority

        self._build_service(session_capacity=16, chunk_bytes=65536)
        self.handles = [
            self.service.open_session(
                priority=(Priority.INTERACTIVE if index < 2
                          else Priority.BATCH))
            for index in range(self.sessions)]

    def make_inputs(self) -> None:
        self._fingerprint_pool()
        count = int(STEADY_REQUESTS_PER_S * self.seconds)
        self.attempted = count
        interval = 1000.0 / self.rate_rps
        # Fixed rate with a seeded jitter of under half an interval, so
        # arrival order is the index order.
        jitter = self.rng.uniform(-0.4, 0.4, size=count)
        self.due_ns = np.round((np.arange(count) + 0.5 + jitter)
                               * interval * 1e6).astype(np.int64)
        self.session_of = self.rng.integers(0, self.sessions, size=count)
        self.fingerprint_of = self.rng.integers(0, len(self.pool), size=count)

    def submit_due(self, batch, now: int) -> None:
        if self.tracer is not None:
            self.tracer.request_id = batch[0][1]
        pairs = [(self.handles[self.session_of[i]],
                  self.pool[self.fingerprint_of[i]]) for _, i in batch]
        verdicts = self.service.submit_many(pairs)
        for (due, index), (handle, _), verdict in zip(batch, pairs,
                                                      verdicts):
            self.gen_late_ms.append((now - due) / 1e6)
            if isinstance(verdict, int):
                self.accepted += 1
                self.request_of[(handle.session_id, verdict)] = index

    def drive(self) -> None:
        self.accepted = 0
        self.request_of: dict[tuple[int, int], int] = {}
        events = [(int(due), index)
                  for index, due in enumerate(self.due_ns)]

        def delivered(now: int) -> None:
            for handle in self.handles:
                if not handle.results:
                    continue
                for seq in list(handle.results):
                    result = handle.take_result(seq)
                    index = self.request_of.pop((handle.session_id, seq))
                    self._deliver(int(self.fingerprint_of[index]), result)
                    self.latencies_ms.append(
                        (now - int(self.due_ns[index])) / 1e6)

        self._drive(events, delivered)


class ServeChurn(_ServingWorkload):
    """Short-lived sessions: open, send 1-2 requests, close once answered."""

    name = "serve_churn"
    platform_seed = b"perfbench-serve-churn"
    # Requests arrive at a fixed rate with a seeded jitter; a new
    # session takes every slot no waiting second request claims.  A
    # fixed-rate stream keeps the latency tail steady across seeds.
    request_rate = 150.0         # request slots per virtual second
    think_s = (2.0, 4.0)         # first request to second, when there is one

    def setup(self) -> None:
        self._build_service(session_capacity=2048, chunk_bytes=4096)

    def make_inputs(self) -> None:
        from repro.serve import Priority

        self._fingerprint_pool()
        sessions = int(CHURN_SESSIONS_PER_S * self.seconds)
        # Exactly half the sessions send two requests and half are
        # interactive, in seeded order, so the seed moves which session
        # does what but not how much work there is.
        halves = np.arange(sessions) % 2
        self.requests = 1 + self.rng.permutation(halves)
        self.priority = [Priority.INTERACTIVE if flip else Priority.BATCH
                         for flip in self.rng.permutation(halves)]
        gaps = np.round(self.rng.uniform(*self.think_s, size=sessions)
                        * self.request_rate).astype(int)
        total = int(self.requests.sum())
        placed = []                  # (slot, session, request number)
        waiting: list[tuple[int, int]] = []   # (earliest slot, session)
        slot = opened = 0
        while len(placed) < total:
            if waiting and waiting[0][0] <= slot:
                placed.append((slot, heapq.heappop(waiting)[1], 1))
            elif opened < sessions:
                placed.append((slot, opened, 0))
                if self.requests[opened] == 2:
                    heapq.heappush(waiting, (slot + gaps[opened], opened))
                opened += 1
            slot += 1
        interval_ns = 1e9 / self.request_rate
        jitter = self.rng.uniform(-0.4, 0.4, size=slot)
        fingerprints = self.rng.integers(0, len(self.pool), size=total)
        self.events = [
            (int(round((at + 0.5 + jitter[at]) * interval_ns)),
             (session, k, int(fingerprint)))
            for (at, session, k), fingerprint in zip(placed, fingerprints)]
        self.attempted = total

    def submit_due(self, batch, now: int) -> None:
        from repro.serve import Rejected

        pairs, keys = [], []
        for due, (session, k, fingerprint) in batch:
            if self.tracer is not None:
                self.tracer.request_id = session
            self.gen_late_ms.append((now - due) / 1e6)
            handle = self.open.get(session)
            if handle is None:
                handle = self.service.open_session(
                    priority=self.priority[session])
                if isinstance(handle, Rejected):
                    self.rejected += 1
                    continue
                self.sessions_opened += 1
                self.open[session] = handle
                self.alive_peak = max(self.alive_peak, len(self.open))
            pairs.append((handle, self.pool[fingerprint]))
            keys.append((due, session, fingerprint))
        if not pairs:
            return
        verdicts = self.service.submit_many(pairs)
        for (handle, _), key, verdict in zip(pairs, keys, verdicts):
            if isinstance(verdict, int):
                self.accepted += 1
                self.request_of[(handle.session_id, verdict)] = key
                self.waiting.add(key[1])

    def drive(self) -> None:
        self.accepted = 0
        self.rejected = 0
        self.sessions_opened = 0
        self.alive_peak = 0
        self.open: dict[int, object] = {}
        self.answered: dict[int, int] = {}
        self.waiting: set[int] = set()
        self.request_of: dict[tuple[int, int], tuple] = {}

        def delivered(now: int) -> None:
            for session in list(self.waiting):
                handle = self.open[session]
                if not handle.results:
                    continue
                for seq in list(handle.results):
                    result = handle.take_result(seq)
                    due, _, fingerprint = self.request_of.pop(
                        (handle.session_id, seq))
                    self._deliver(fingerprint, result)
                    self.latencies_ms.append((now - due) / 1e6)
                    self.answered[session] = self.answered.get(session, 0) + 1
                if not handle.pending:
                    self.waiting.discard(session)
                if self.answered.get(session, 0) == self.requests[session]:
                    self.service.close_session(handle)
                    del self.open[session]

        self._drive(self.events, delivered)

    def layer_counts(self, counts) -> dict[str, float]:
        layers = super().layer_counts(counts)
        layers["serve.sessions_alive_peak"] = self.alive_peak
        return layers

    def deterministic_counts(self) -> dict[str, float]:
        counts = super().deterministic_counts()
        counts["sessions_opened"] = self.sessions_opened
        counts["alive_peak"] = self.alive_peak
        counts["rejected"] = self.rejected
        return counts

    def check(self) -> list[str]:
        errors = super().check()
        if self.open:
            errors.append(f"{len(self.open)} sessions never closed")
        return errors


# --- keyword spotting ------------------------------------------------------

class KwsClip(Workload):
    """One user, one enclave, closed loop through the secure microphone."""

    name = "kws_clip"
    platform_seed = b"perfbench-kws-clip"
    pool_size = 24

    def setup(self) -> None:
        from repro.core.omg import KeywordSpotterApp, OmgSession
        from repro.core.parties import User, Vendor
        from repro.eval.pretrained import standard_model
        from repro.trustzone.worlds import make_platform

        model, _ = standard_model()
        self.model = model
        self.platform = make_platform(seed=self.platform_seed,
                                      key_bits=KEY_BITS)
        vendor = Vendor("ml-vendor", model, seed=self.platform_seed
                        + b"|vendor", key_bits=KEY_BITS)
        self.session = OmgSession(self.platform, vendor, User(),
                                  KeywordSpotterApp(),
                                  channel_seed=self.platform_seed)
        self.session.prepare()
        self.session.initialize()
        self.clock = self.platform.soc.clock

    def make_inputs(self) -> None:
        from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands

        dataset = SyntheticSpeechCommands()
        labels = self.rng.integers(0, len(LABELS), size=self.pool_size)
        indices = self.rng.integers(0, 100_000, size=self.pool_size)
        self.clips = [dataset.render(LABELS[label], int(index)).samples
                      for label, index in zip(labels, indices)]
        count = int(KWS_CLIPS_PER_S * self.seconds)
        self.attempted = count
        self.order = self.rng.integers(0, self.pool_size, size=count)

    def drive(self) -> None:
        clock, session = self.clock, self.session
        rate = self.platform.soc.microphone.sample_rate_hz
        self.outputs: dict[int, set] = {}
        origin = clock.now_ms
        with self._meter():
            for number, clip_index in enumerate(self.order):
                if self.tracer is not None:
                    self.tracer.request_id = number
                samples = self.clips[clip_index]
                start = clock.now_ms
                result = session.recognize_via_microphone(
                    samples, record_transcript=False)
                # The user stops speaking when the clip ends: latency
                # runs from the end of the utterance to the result.
                spoken_end = start + 1000.0 * len(samples) / rate
                self.latencies_ms.append(clock.now_ms - spoken_end)
                self.outputs.setdefault(int(clip_index), set()).add(
                    (result.label_index,
                     np.asarray(result.scores, np.int8).tobytes()))
        self.sim_s = (clock.now_ms - origin) / 1000.0

    def check(self) -> list[str]:
        from repro.audio.features import FingerprintExtractor
        from repro.tflm.interpreter import Interpreter
        from repro.train.convert import fingerprint_to_int8

        errors = []
        reference = Interpreter(self.model, reference_kernels=True)
        extractor = FingerprintExtractor(self.session.app.feature_config)
        for clip_index, seen in sorted(self.outputs.items()):
            label, scores = reference.classify(fingerprint_to_int8(
                extractor.extract(self.clips[clip_index])))
            want = {(int(label), np.asarray(scores, np.int8).tobytes())}
            if seen != want:
                errors.append(f"clip {clip_index}: result differs from the "
                              f"reference invoke")
        return errors

    def deterministic_counts(self) -> dict[str, float]:
        return {"invokes": self.session.app.interpreter.total_invokes}

    def teardown(self) -> None:
        self.session.teardown()


# --- fleet -------------------------------------------------------------------

# Journal records between compactions.  The default (20 000) exceeds a
# shard's share of this fleet; at 256 every shard compacts a few times
# per storm, so compaction is part of the measured work.
COMPACT_LAG = 256


class FleetStorm(Workload):
    """Two-tenant enrollment storm with a fixed fault schedule.

    The seeded devices are fabricated with the fleet, so they are part
    of set-up; make_inputs() only scales the fault schedule to them.
    """

    name = "fleet_storm"
    fleet_seed = b"perfbench-fleet-storm"
    shards = 8
    cohorts_per_tenant = 5

    @property
    def latency_limit_ms(self) -> float:
        from repro.eval.bench import FLEET_P99_SLO_MS

        return FLEET_P99_SLO_MS

    def setup(self) -> None:
        from repro.fleet import DeviceFleet, FleetDirector
        from repro.hw.timing import VirtualClock

        self.clock = VirtualClock()
        self.fleet = DeviceFleet(self.clock, key_bits=KEY_BITS,
                                 seed=self.fleet_seed)
        devices = int(FLEET_DEVICES_PER_S * self.seconds)
        per_cohort = max(1, devices // (len(self.fleet.tenants)
                                        * self.cohorts_per_tenant))
        # Cohort names carry the traffic seed: device names, nonces and
        # arrival offsets derive from them; tenant keys do not.
        for tenant in self.fleet.tenants:
            for index in range(self.cohorts_per_tenant):
                self.fleet.build_cohort(
                    tenant, f"{tenant}-s{self.seed}-c{index}", per_cohort)
        self.director = FleetDirector(
            self.clock, [f"shard-{i:02d}" for i in range(self.shards)],
            self.fleet.tenants)

    def make_inputs(self) -> None:
        from repro.faults.plan import (FaultPlan, crash_nth_shard_op,
                                       drop_nth_fleet_rpc,
                                       tear_nth_journal_append)

        devices = self.fleet.device_count
        self.attempted = devices
        # The repo bench's schedule at 10^5 devices, scaled to this fleet.
        scale = devices / 100_000
        self.plan = FaultPlan(41, [
            drop_nth_fleet_rpc(max(1, int(5_000 * scale)), span=64),
            drop_nth_fleet_rpc(max(1, int(60_000 * scale)), span=64),
            drop_nth_fleet_rpc(max(1, int(150_000 * scale)), span=64),
            crash_nth_shard_op(max(1, int(40_000 * scale))),
            tear_nth_journal_append(max(1, int(60_000 * scale))),
        ])

    def drive(self) -> None:
        from repro.faults import hooks as fault_hooks
        from repro.fleet import director as director_module

        # run_storm reports only p50/p99; the full sorted latency list
        # passes through its percentile helper, so capture it there to
        # get the share within the limit.
        captured: list = []
        percentile_fn = director_module._percentile

        def capture(sorted_values, fraction):
            captured.append(sorted_values)
            return percentile_fn(sorted_values, fraction)

        director_module._percentile = capture
        if self.tracer is not None:
            self.tracer.request_id = 0
        try:
            with fault_hooks.installed(self.plan), self._meter():
                self.report = self.director.run_storm(
                    self.fleet.cohorts, compact_lag=COMPACT_LAG)
        finally:
            director_module._percentile = percentile_fn
        if not captured:
            raise RuntimeError("storm latencies were not observable")
        self.latencies_ms = list(captured[0])
        self.sim_s = self.report.virtual_seconds

    def check(self) -> list[str]:
        from repro.errors import ProtocolError

        report, director = self.report, self.director
        errors = []
        if report.stalled:
            errors.append(f"{report.stalled} devices stalled")
        for shard in director.shards.values():
            if not shard.up:
                shard.restart()
        reconciled = director.reconcile()
        if reconciled:
            errors.append(f"reconcile revoked {reconciled} duplicate "
                          f"licenses")
        live = director.live_licenses()
        if len(live) != report.granted:
            errors.append(f"{len(live)} live licenses for "
                          f"{report.granted} grants")
        try:
            director.verify_audits()
        except ProtocolError as exc:
            errors.append(f"audit chain: {exc}")
        if len(self.latencies_ms) != report.granted:
            errors.append("latency sample count differs from grants")
        return errors

    def deterministic_counts(self) -> dict[str, float]:
        report = self.report
        return {
            "granted": report.granted, "waves": report.waves,
            "retries": report.retries, "drops": report.drops,
            "takeovers": report.takeovers, "crashes": report.crashes,
            "restarts": report.restarts,
            "journal_records": report.journal_records,
            "audit_records": report.audit_records,
            "faults_fired": len(self.plan.events),
        }

    def layer_counts(self, counts) -> dict[str, float]:
        return {"fleet.retries": self.report.retries,
                "fleet.takeovers": self.report.takeovers,
                "fleet.useful_ratio": (self.report.granted
                                       / counts["fleet.legs"])}


WORKLOADS = {cls.name: cls
             for cls in (ServeSteady, ServeChurn, KwsClip, FleetStorm)}
