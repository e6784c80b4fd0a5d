"""Enclave worker pool: one pinned SANCTUARY instance per big core.

The HiKey 960 has four A73 big cores; SANCTUARY binds an enclave's
memory to exactly one core, so the natural scaling unit is one
keyword-spotter enclave per big core.  Each worker is a full
:class:`~repro.core.omg.OmgSession` — attested, provisioned, and
unlocked once at pool construction — and then serves batches for its
whole lifetime: steady-state requests never touch the vendor again
(the vendor's ``provisioned_count``/``keys_released`` counters stay
flat, which the serve tests pin).

Batches reach workers through the
:class:`~repro.serve.loop.ServingLoop`, which keeps one mailbox per
worker *slot* and addresses ``pool.workers[index]`` directly — which
works across crash recovery because :meth:`restart_worker` swaps the
replacement into the same slot.  When no big core is available for
pinning the pool degrades to a single worker placed by the default
(least-busy) policy — the sequential fallback.

Crash recovery: when a worker's enclave panics mid-invoke the fail-
closed envelope scrubs and unlocks it, and :meth:`restart_worker`
launches a *fresh* session on the same core — full prepare (attested
report verified by the vendor again) and provisioning, with a restart-
unique channel seed so the replacement's transport never reuses the
dead session's key material.
"""

from __future__ import annotations

import numpy as np

from repro.core.omg import KeywordSpotterApp, OmgSession
from repro.core.parties import User, Vendor
from repro.errors import ProtocolError, ServeError
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs
from repro.sanctuary.lifecycle import EnclaveState
from repro.trustzone.worlds import Platform

__all__ = ["EnclaveWorker", "EnclaveWorkerPool"]


class EnclaveWorker:
    """One pinned enclave plus its serving counters."""

    def __init__(self, session: OmgSession, core_id: int | None) -> None:
        self.session = session
        self.core_id = core_id
        self.batches = 0
        self.requests = 0

    def run_batch(self, fingerprints: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Classify a fingerprint batch inside the fail-closed envelope.

        Mirrors ``EnclaveInstance.invoke``: a malformed request
        (``ProtocolError``) is refused and the enclave lives on; any
        other fault panics the enclave — scrub and unlock — before the
        error surfaces to the caller.
        """
        telemetry = _obs.TELEMETRY
        if telemetry is None:
            return self._invoke(fingerprints)
        core = -1 if self.core_id is None else self.core_id
        with telemetry.tracer.span("enclave.batch_invoke",
                                   core=core, batch=len(fingerprints)):
            return self._invoke(fingerprints)

    def _invoke(self, fingerprints: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        session = self.session
        try:
            if _faults.PLAN is not None:
                _faults.PLAN.worker_invoke()
            labels, scores = session.app.recognize_fingerprints(
                session.ctx, fingerprints)
        except ProtocolError:
            raise
        except Exception:
            session.instance.panic()
            raise
        self.batches += 1
        self.requests += len(fingerprints)
        return labels, scores


class EnclaveWorkerPool:
    """Launch and pin a set of enclave workers, one per slot."""

    def __init__(self, platform: Platform, vendor: Vendor,
                 num_workers: int | None = None) -> None:
        self._platform = platform
        self._vendor = vendor
        soc = platform.soc
        # Collect placement targets up front so the pool's layout is
        # explicit, not a side effect of launch-time load.
        big_ids = [core.core_id for core in soc.os_big_cores()]
        if num_workers is None:
            num_workers = max(1, len(big_ids))
        if num_workers < 1:
            raise ServeError("worker pool needs at least one worker")
        placements: list[int | None] = list(big_ids[:num_workers])
        while len(placements) < num_workers:
            # Sequential fallback: no big core left to pin — let the
            # runtime place the worker wherever an OS core remains.
            placements.append(None)

        self.workers: list[EnclaveWorker] = []
        for index, core_id in enumerate(placements):
            session = OmgSession(
                platform, vendor, User(), KeywordSpotterApp(),
                channel_seed=b"serve-worker-%d" % index,
                core_id=core_id,
            )
            session.prepare()
            session.initialize()
            self.workers.append(
                EnclaveWorker(session, session.instance.core_id))
        self.restarts = 0

    def __len__(self) -> int:
        return len(self.workers)

    def restart_worker(self, worker: EnclaveWorker) -> EnclaveWorker:
        """Replace a panicked worker with a freshly attested session.

        The dead enclave was already scrubbed and unlocked by the fail-
        closed panic path; here the pool launches a new session pinned
        to the *same* core (preserving the one-enclave-per-big-core
        layout), runs the full prepare/initialize handshake — so the
        vendor re-verifies a fresh attestation report before releasing
        the model key — and swaps it into the worker slot in place, so
        the loop's slot-indexed mailboxes keep addressing it.  The channel seed includes
        the restart ordinal: transport keys are never reused across a
        worker's incarnations.
        """
        try:
            index = self.workers.index(worker)
        except ValueError:
            raise ServeError("restart_worker: unknown worker")
        self.restarts += 1
        session = OmgSession(
            self._platform, self._vendor, User(), KeywordSpotterApp(),
            channel_seed=b"serve-worker-%d-r%d" % (index, self.restarts),
            core_id=worker.core_id,
        )
        session.prepare()
        session.initialize()
        replacement = EnclaveWorker(session, session.instance.core_id)
        # The slot's tallies carry over, so the per-core request count
        # exported from them survives the restart.
        replacement.batches = worker.batches
        replacement.requests = worker.requests
        self.workers[index] = replacement
        return replacement

    def teardown(self) -> None:
        for worker in self.workers:
            # A panicked worker was already scrubbed and unlocked by the
            # fail-closed envelope; tearing it down again would raise.
            if worker.session.instance.state is EnclaveState.TORN_DOWN:
                continue
            worker.session.teardown()
