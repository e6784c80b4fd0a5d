"""Admission control for the async serving core: classes and budgets.

The service expresses backpressure at the ring boundary (a full ingress
ring sheds the submit).  The serving loop adds a second gate *after*
ingest: every opened frame is routed to its
session's priority class, and each class owns a queue budget.  A frame
arriving at a full class queue is dropped with a typed account
(``admission_shed``) instead of wedging the reactor — 429-style
backpressure where the client's retry path is the same typed
``Shed``/``Rejected`` contract :meth:`ServingService.submit` already
speaks.

Two classes are enough structure for the scheduling property the loop
guarantees (and the priority-inversion regression tests pin):

* ``INTERACTIVE`` — latency-sensitive; drained first every tick, so a
  saturated batch class cannot push interactive p99 past its deadline.
* ``BATCH`` — throughput traffic; absorbs whatever worker capacity the
  interactive class leaves on the table.

Budgets default to ``None`` (unbounded): admission control is then
pure classification and the exactly-once ledger is unchanged.  Setting
a budget bounds that class's queue memory under sustained overload.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import ServeError

__all__ = ["Priority", "AdmissionPolicy", "AdmissionController"]


class Priority(IntEnum):
    """Session priority class, assigned at ``open_session``."""

    INTERACTIVE = 0
    BATCH = 1


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-class queue budgets (``None`` = unbounded).

    A budget caps how many opened-but-undispatched requests the class
    queue may hold; the reactor sheds (with accounting) past it.
    """

    interactive_budget: int | None = None
    batch_budget: int | None = None

    def __post_init__(self) -> None:
        for budget in (self.interactive_budget, self.batch_budget):
            if budget is not None and budget < 1:
                raise ServeError("class queue budgets must be >= 1")

    def budget(self, priority: "Priority") -> int | None:
        if priority == Priority.INTERACTIVE:
            return self.interactive_budget
        return self.batch_budget


class AdmissionController:
    """The post-ingest gate: admit into a class queue, or shed typed.

    Stateless beyond its counters — the queues themselves live in the
    :class:`~repro.serve.loop.ServingLoop`; the controller only answers
    "may this class grow past its current depth?" and keeps the
    admitted/shed tallies that the obs layer exports.
    """

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.admitted = {p: 0 for p in Priority}
        self.shed = {p: 0 for p in Priority}

    def admit(self, priority: "Priority", depth: int) -> bool:
        """Whether a class queue currently ``depth`` deep may take one
        more request.  Counts the verdict either way."""
        budget = self.policy.budget(priority)
        if budget is not None and depth >= budget:
            self.shed[priority] += 1
            return False
        self.admitted[priority] += 1
        return True
