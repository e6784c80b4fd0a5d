"""The async serving core: a cooperative event loop on the virtual clock.

:class:`ServingLoop` is the only thing that turns ingested frames into
batches: a reactor that makes scheduling decisions once per *tick*:

1. **Ingest reactor** — drain the ingress ring (two-phase batched
   verify, as before) and route every opened request through the
   admission gate into its session's class queue (interactive or
   batch).  A class past its queue budget sheds the request with an
   ``admission_shed`` account instead of blocking the reactor.
2. **Adaptive batching** — one :class:`AdaptiveBatcher` retargets both
   class queues' ``max_batch`` from the live queue depth: grow toward
   the configured ``max_batch`` under load, shrink toward 1 under
   light load so lone requests dispatch at once instead of waiting out
   the deadline.
3. **Batch forming** — pop dispatchable batches (size/deadline/watchdog
   triggers, interactive class first) into per-worker **mailboxes**,
   least-loaded first.  Each enclave worker is an actor owning a
   bounded queue of batches, so one slow or crash-looping worker backs
   up only its own mailbox.
4. **Worker actors** — each mailbox executes at most one batch per
   tick (egress-room permitting; short room defers, never drops).  A
   worker panic requeues the batch to the *front of its originating
   class queue* — the exactly-once contract — and relaunches the
   worker.
5. **Client mux** — drain the egress ring into session futures
   (two-phase batched verify on the client side too).

Everything runs on the virtual clock, single-threaded and
deterministic: the same submissions and the same fault plan produce
the same transcript bit for bit, which is what lets the chaos harness
drive this loop with seeded schedules.

All five serving fault domains land in the loop unchanged, because
they instrument the primitives the loop composes: ``serve.*`` frame
tamper and ``ring.reserve`` stalls in the rings, ``sched.deadline``
skew in the class queues' ``ready()``, ``keycache.chunk`` drops in the
keystream cache, ``worker.invoke`` panics in the pool.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ServeError
from repro.obs import hooks as _obs
from repro.serve.admission import (AdmissionController, AdmissionPolicy,
                                   Priority)
from repro.serve.scheduler import BatchScheduler

__all__ = ["AdaptiveBatcher", "Mailbox", "ServingLoop"]


class AdaptiveBatcher:
    """Queue-depth-driven batch sizing between 1 and ``max_batch``.

    The state machine has one variable, ``target``:

    * **grow** (``target *= 2``, capped) when the queue holds at least
      two targets' worth of work — the system is behind, so trade
      latency for amortization;
    * **shrink** (``target //= 2``, floored at ``min_batch``) when the
      queue holds at most half a target — the system is ahead, so stop
      waiting for co-riders that are not coming;
    * **hold** in between (hysteresis: the grow and shrink bands do
      not touch, so a steady arrival rate cannot oscillate the target).
    """

    def __init__(self, max_batch: int, min_batch: int = 1) -> None:
        if not 1 <= min_batch <= max_batch:
            raise ServeError("need 1 <= min_batch <= max_batch")
        self.max_batch = max_batch
        self.min_batch = min_batch
        self.target = max_batch
        self.grows = 0
        self.shrinks = 0

    def update(self, queue_depth: int) -> int:
        """Retarget from the live queue depth; returns the new target."""
        if queue_depth >= 2 * self.target and self.target < self.max_batch:
            self.target = min(self.max_batch, self.target * 2)
            self.grows += 1
        elif (queue_depth <= self.target // 2
              and self.target > self.min_batch):
            self.target = max(self.min_batch, self.target // 2)
            self.shrinks += 1
        return self.target


class Mailbox:
    """One enclave worker's bounded inbox of formed batches."""

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise ServeError("mailbox capacity must be >= 1")
        self.capacity = capacity
        self._batches: deque = deque()   # (class queue, batch)

    def __len__(self) -> int:
        return len(self._batches)

    @property
    def full(self) -> bool:
        return len(self._batches) >= self.capacity

    def depth(self) -> int:
        """Requests (not batches) waiting in this mailbox."""
        return sum(len(batch) for _, batch in self._batches)

    def post(self, queue, batch: list) -> None:
        if self.full:
            raise ServeError("mailbox full")
        self._batches.append((queue, batch))

    def take(self):
        return self._batches.popleft()

    def peek_size(self) -> int:
        """Size of the next batch, 0 when empty."""
        return len(self._batches[0][1]) if self._batches else 0


class ServingLoop:
    """Cooperative reactor driving one :class:`ServingService`."""

    def __init__(self, service, policy: AdmissionPolicy | None = None,
                 tick_ms: float = 0.25,
                 interactive_deadline_ms: float | None = None,
                 mailbox_capacity: int = 2, adaptive: bool = True) -> None:
        if tick_ms <= 0:
            raise ServeError("tick_ms must be positive")
        self.service = service
        self.clock = service.clock
        self.tick_ms = tick_ms
        config = service.config
        # Interactive requests may run under a tighter forming deadline
        # than batch traffic; both classes share the size cap.
        self.queues = {
            Priority.INTERACTIVE: BatchScheduler(
                self.clock, max_batch=config.max_batch,
                deadline_ms=(interactive_deadline_ms
                             if interactive_deadline_ms is not None
                             else config.deadline_ms)),
            Priority.BATCH: BatchScheduler(
                self.clock, max_batch=config.max_batch,
                deadline_ms=config.deadline_ms),
        }
        self.admission = AdmissionController(policy)
        self.batcher = (AdaptiveBatcher(config.max_batch)
                        if adaptive else None)
        self.mailboxes = [Mailbox(mailbox_capacity)
                          for _ in service.pool.workers]
        # Watchdog deadline on a request's true (skew-immune) age.
        self.watchdog_ms = (config.watchdog_ms
                            if config.watchdog_ms is not None
                            else 10.0 * config.deadline_ms)
        self.watchdog_flushes = 0
        self.ticks = 0
        self._spin = 0   # rotating tie-break for least-loaded selection
        service.attach_loop(self)

    # --- admission routing (the ingest sink) ---------------------------

    def _sink(self, item) -> None:
        session_id = item[0]
        priority = Priority(self.service.session_priority(session_id))
        queue = self.queues[priority]
        # Accepted at the ring, dropped at the gate: the seq is gone, and
        # the controller's shed count carries it into the exactly-once
        # ledger (ServingStats.admission_shed).
        if self.admission.admit(priority, len(queue)):
            queue.submit(item)

    # --- reactor -------------------------------------------------------

    def queue_depth(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    def mailbox_depth(self) -> int:
        return sum(box.depth() for box in self.mailboxes)

    def pending(self) -> int:
        """Work anywhere in flight: rings, class queues, mailboxes."""
        return (self.service.frames_in_flight() + self.queue_depth()
                + self.mailbox_depth())

    def _least_loaded(self) -> "Mailbox | None":
        """The emptiest non-full mailbox, rotating ties across ticks so
        equal load spreads over every worker instead of pinning box 0."""
        n = len(self.mailboxes)
        best = None
        best_key = None
        for offset in range(n):
            index = (self._spin + offset) % n
            box = self.mailboxes[index]
            if box.full:
                continue
            key = len(box)
            if best_key is None or key < best_key:
                best, best_key = box, key
        self._spin = (self._spin + 1) % n
        return best

    def _form(self, force: bool) -> None:
        """Pop dispatchable batches into mailboxes, interactive first."""
        for priority in (Priority.INTERACTIVE, Priority.BATCH):
            queue = self.queues[priority]
            while len(queue):
                box = self._least_loaded()
                if box is None:
                    return   # every mailbox full; try next tick
                if force:
                    box.post(queue, queue.flush(queue.max_batch))
                elif queue.ready():
                    box.post(queue, queue.next_batch())
                elif queue.oldest_wait_ms() >= self.watchdog_ms:
                    # Injected deadline skew can hold ready() false past
                    # the deadline; true age still forces liveness.
                    box.post(queue, queue.flush(queue.max_batch))
                    self._count_watchdog_flush()
                else:
                    break

    def _count_watchdog_flush(self) -> None:
        self.watchdog_flushes += 1
        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.counter(
                "omg_serve_watchdog_flushes_total",
                "batches force-flushed past the watchdog deadline").inc()

    def _execute(self) -> int:
        """Each worker actor runs at most one mailbox batch per tick."""
        service = self.service
        ran = 0
        for index, box in enumerate(self.mailboxes):
            if not len(box):
                continue
            if service.egress_free() < box.peek_size():
                # Not enough egress room for this batch's responses:
                # defer — the client mux drains the ring every tick, so
                # room frees without dropping anything accepted.
                continue
            queue, batch = box.take()
            service.run_batch(batch, service.pool.workers[index],
                              queue.requeue)
            ran += 1
        return ran

    def tick(self, force: bool = False) -> int:
        """One reactor turn; returns the number of batches executed.

        ``force`` flushes sub-deadline leftovers too (drain loops).
        The tick never blocks and never raises for backpressure —
        admission sheds and egress shortfalls defer work to the next
        tick; only a worker crash-loop (restart budget exhausted)
        escapes as :class:`~repro.errors.ServeError`.
        """
        telemetry = _obs.TELEMETRY
        if telemetry is None:
            return self._tick(force)
        with telemetry.tracer.span("serve.tick", force=force) as span:
            ran = self._tick(force)
            span.set_attribute("batches", ran)
            span.set_attribute("queue_depth", self.queue_depth())
        return ran

    def _tick(self, force: bool) -> int:
        service = self.service
        self.ticks += 1
        service.ingest(self._sink)
        if self.batcher is not None:
            target = self.batcher.update(self.queue_depth())
            for queue in self.queues.values():
                queue.max_batch = target
        if _obs.TELEMETRY is not None:
            metrics = _obs.TELEMETRY.metrics
            metrics.gauge("omg_serve_batch_target",
                          "adaptive batcher's current target size").set(
                self.queues[Priority.BATCH].max_batch)
            metrics.gauge("omg_serve_queue_interactive",
                          "requests waiting in the interactive class"
                          ).set(len(self.queues[Priority.INTERACTIVE]))
            metrics.gauge("omg_serve_queue_batch",
                          "requests waiting in the batch class"
                          ).set(len(self.queues[Priority.BATCH]))
            metrics.gauge("omg_serve_mailbox_depth",
                          "requests formed into worker mailboxes"
                          ).set(self.mailbox_depth())
            metrics.gauge("omg_serve_egress_occupancy",
                          "frames waiting in the egress ring"
                          ).set(service.config.ring_slots - 1
                                - service.egress_free())
        self._form(force)
        ran = self._execute()
        service.poll_responses()
        return ran

    def run_until_idle(self, max_ticks: int = 10000,
                       force: bool = False) -> int:
        """Tick (advancing the virtual clock) until nothing is in
        flight; returns total batches executed.  ``force`` flushes
        sub-deadline leftovers every tick — without it the forming
        deadline fires naturally as the clock advances."""
        ran = 0
        for _ in range(max_ticks):
            if not self.pending():
                return ran
            ran += self.tick(force=force)
            self.clock.advance_ms(self.tick_ms)
        if self.pending():
            raise ServeError(
                f"serving loop still busy after {max_ticks} ticks")
        return ran
