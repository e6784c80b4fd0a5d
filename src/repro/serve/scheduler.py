"""Request scheduler: group per-session requests into dispatch batches.

Two triggers, both on the *virtual* clock:

* **size** — ``max_batch`` requests are waiting; dispatch immediately.
* **deadline** — the oldest waiting request has aged past
  ``deadline_ms``; dispatch whatever is there.

The deadline bounds per-request queueing latency, the size cap bounds
batch memory and keeps the batched-invoke working set small.  Arrival
order is preserved within and across batches.

Age tracking is a lazy-deletion min-heap over arrival stamps rather
than a front-of-deque peek: :meth:`requeue` re-stamps a crashed batch
at *now* and pushes it to the front, so after a requeue the queue head
is no longer the oldest entry.  The heap keeps :meth:`oldest_wait_ms`
and the deadline check answering for the *true* oldest request in
amortized O(log n) — at 1000 concurrent sessions the watchdog and the
adaptive batcher poll these every tick, so a linear rescan of the
pending deque would dominate the reactor loop.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.errors import ServeError
from repro.faults import hooks as _faults
from repro.hw.timing import VirtualClock

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """FIFO batcher with a size trigger and a virtual-clock deadline."""

    def __init__(self, clock: VirtualClock, max_batch: int = 8,
                 deadline_ms: float = 2.0) -> None:
        if max_batch < 1:
            raise ServeError("max_batch must be at least 1")
        if deadline_ms < 0:
            raise ServeError("deadline_ms must be non-negative")
        self.clock = clock
        self.max_batch = max_batch
        self.deadline_ms = deadline_ms
        self._pending: deque = deque()   # (stamp_ms, uid, item)
        # Lazy-deletion age index: heap of (stamp_ms, uid); uids popped
        # from the deque leave stale heap entries behind, skipped on the
        # next peek.  Each uid is pushed exactly once, so total heap
        # churn is O(log n) amortized per submit/take.
        self._ages: list = []
        self._live: set = set()
        self._uid = 0
        self.batches = 0
        self.full_batches = 0
        self.deadline_flushes = 0

    def __len__(self) -> int:
        return len(self._pending)

    def _push(self, stamp_ms: float, item, front: bool = False) -> None:
        uid = self._uid
        self._uid += 1
        entry = (stamp_ms, uid, item)
        if front:
            self._pending.appendleft(entry)
        else:
            self._pending.append(entry)
        heapq.heappush(self._ages, (stamp_ms, uid))
        self._live.add(uid)

    def _oldest_stamp(self):
        """Arrival stamp of the true oldest pending request, or None."""
        ages = self._ages
        while ages and ages[0][1] not in self._live:
            heapq.heappop(ages)
        return ages[0][0] if ages else None

    def submit(self, item) -> None:
        """Queue one request; arrival time is stamped now."""
        self._push(self.clock.now_ms, item)

    def ready(self) -> bool:
        """Would :meth:`next_batch` dispatch right now?

        A ``sched.deadline`` skew fault subtracts its magnitude (ms)
        from the oldest request's apparent age, delaying deadline
        flushes — the fault models a drifting batch timer, not a clock
        change, so :meth:`oldest_wait_ms` (and hence the watchdog in
        :class:`~repro.serve.loop.ServingLoop`) is unaffected.
        """
        if len(self._pending) >= self.max_batch:
            return True
        oldest_ms = self._oldest_stamp()
        if oldest_ms is None:
            return False
        age_ms = self.clock.now_ms - oldest_ms
        if _faults.PLAN is not None:
            age_ms -= _faults.PLAN.scheduler_skew()
        return age_ms >= self.deadline_ms

    def oldest_wait_ms(self) -> float:
        """True (skew-immune) age of the oldest pending request in ms.

        ``0.0`` when nothing is pending.  The serving watchdog reads
        this directly so injected deadline skew can delay batching but
        never starve a stuck request forever.  Answered from the age
        heap, so a requeued-to-front batch (re-stamped at now) cannot
        mask an older request sitting behind it.
        """
        oldest_ms = self._oldest_stamp()
        if oldest_ms is None:
            return 0.0
        return self.clock.now_ms - oldest_ms

    def next_batch(self) -> list:
        """Pop the next batch (up to ``max_batch`` items, FIFO).

        Call only when :meth:`ready` — dispatching early would trade
        batching efficiency away silently.
        """
        if not self.ready():
            raise ServeError("no batch is ready to dispatch")
        return self._take(self.max_batch)

    def flush(self, limit: int | None = None) -> list:
        """Pop pending items regardless of triggers (shutdown, watchdog).

        ``limit`` caps the batch — the watchdog force-flush uses it to
        respect ``max_batch`` and egress-ring room; default pops all.
        """
        if not self._pending:
            return []
        return self._take(len(self._pending) if limit is None else limit)

    def requeue(self, items) -> None:
        """Push a failed batch back to the *front* of the queue.

        Used by crash recovery: a batch whose worker panicked mid-invoke
        goes back ahead of everything submitted since, preserving FIFO
        dispatch order.  Items are re-stamped at now — their original
        wait already triggered one dispatch; the fresh stamp keeps a
        single stuck batch from pinning ``ready()`` true forever while
        the watchdog still sees the true wait via the new arrival time.
        """
        now_ms = self.clock.now_ms
        for item in reversed(list(items)):
            self._push(now_ms, item, front=True)

    def _take(self, limit: int) -> list:
        size = min(limit, len(self._pending))
        batch = []
        for _ in range(size):
            _, uid, item = self._pending.popleft()
            self._live.discard(uid)
            batch.append(item)
        self.batches += 1
        if size >= self.max_batch:
            self.full_batches += 1
        else:
            self.deadline_flushes += 1
        return batch
