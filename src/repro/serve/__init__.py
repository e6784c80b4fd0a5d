"""Multi-session enclave serving: batching, worker pool, zero-copy rings.

OMG's single-session flow (one enclave, one query at a time, a
suspend/resume cycle between queries) leaves most of a HiKey 960 idle.
This package serves many concurrent client sessions against a pool of
enclave workers — one per big core — with requests grouped into batches
and moved over zero-copy shared-memory rings:

* :mod:`repro.serve.scheduler` — groups per-session requests into
  batches (size- or deadline-triggered, on the virtual clock).
* :mod:`repro.serve.pool` — one pinned enclave worker per big core,
  addressed by slot.
* :mod:`repro.serve.service` — the serving front end: session keys from
  :mod:`repro.crypto.keycache`, request/response
  :class:`~repro.sanctuary.shm.SlotRing` transport, in-place seal/open.
* :mod:`repro.serve.admission` — priority classes (interactive vs.
  batch) and per-class queue budgets for the async core.
* :mod:`repro.serve.loop` — the cooperative event loop and the only
  dispatcher: ingest reactor, per-worker mailboxes (least-loaded),
  adaptive batch sizing, watchdog.
* :mod:`repro.serve.baseline` — the paper's sequential one-enclave
  path (per-request secure channel, mailbox copies, suspend between
  queries) for the benchmark comparison.
"""

from repro.serve.admission import (AdmissionController, AdmissionPolicy,
                                   Priority)
from repro.serve.baseline import SequentialBaseline
from repro.serve.loop import AdaptiveBatcher, Mailbox, ServingLoop
from repro.serve.pool import EnclaveWorker, EnclaveWorkerPool
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import (Rejected, ServeConfig, ServingService,
                                 ServingStats, SessionHandle, Shed)

__all__ = [
    "AdaptiveBatcher", "AdmissionController", "AdmissionPolicy",
    "BatchScheduler", "EnclaveWorker", "EnclaveWorkerPool", "Mailbox",
    "Priority", "Rejected", "SequentialBaseline", "ServeConfig",
    "ServingLoop", "ServingService", "ServingStats", "SessionHandle",
    "Shed",
]
