"""Deterministic serving and fleet drivers, and their virtual-clock SLOs.

Both drivers build fresh state and run on the simulated clock only, so
their latency figures are host-independent: ``tests/test_sim_slo.py``
checks them against the SLOs below as plain tests.
``benchmarks/test_wallclock.py`` times the same drivers in host
wall-clock; nothing here reads a clock.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KEY_BITS", "SERVING_CONCURRENCY_P99_SLO_MS", "FLEET_P99_SLO_MS",
           "serving_stack", "concurrency_testbed", "storm_testbed"]

# RSA modulus for every generated key: the smallest that fits
# OAEP-SHA256 payloads, so set-up stays cheap; simulated timings do not
# depend on it.
KEY_BITS = 768

# Virtual-clock p99 latency SLO for the 1000-session pass.  Sim latency
# is host-independent (every input to the event loop is deterministic),
# so this is a hard bound, not a noise-padded one: measured ~2.2 s with
# a 1000-request backlog draining through two workers at batch 32; the
# margin covers config evolution, not hosts.
SERVING_CONCURRENCY_P99_SLO_MS = 4000.0

# Virtual-clock p99 enrollment latency under the seeded storm (three
# lossy drop windows, one shard crash, one torn journal append).  Sim
# latency is host-independent — arrivals, queue positions, backoff, and
# restart delays are all deterministic — so this is a hard bound:
# measured ~100 ms (wave cadence plus queue drain; the 100 ms-base
# retry backoff only reaches the tail beyond p99 at this fault rate);
# the margin covers config evolution, not hosts.
FLEET_P99_SLO_MS = 500.0


def serving_stack(platform, model, config, priorities, **loop_options):
    """``(service, loop, handles)`` for ``model`` on a booted
    ``platform``: a :class:`~repro.serve.ServingService` under ``config``
    (its vendor built and worker pool provisioned here, seen by any
    telemetry or sanitizers already installed), the
    :class:`~repro.serve.ServingLoop` driving it (``loop_options`` are
    its keyword options) and one open session per ``priorities`` entry.
    ``service.teardown()`` scrubs open sessions and runs the leak sweep.
    """
    from repro.core.parties import Vendor
    from repro.serve import ServingLoop, ServingService

    service = ServingService(
        platform, Vendor("ml-vendor", model, key_bits=KEY_BITS), config)
    loop = ServingLoop(service, **loop_options)
    handles = [service.open_session(priority=priority)
               for priority in priorities]
    return service, loop, handles


def concurrency_testbed(model, sessions: int):
    """A fresh service holding ``sessions`` open sessions, half of them
    interactive, and the pass that sends one request per session.

    Returns ``(service, drive)``.  ``drive()`` pumps the requests
    through the :class:`~repro.serve.ServingLoop` in waves of 128 —
    batched client-mux submits, shed-and-retry on ring backpressure,
    one reactor tick per wave — then drains to idle.  Call it once:
    the service's latency record and clock carry over between passes.
    """
    from collections import deque

    from repro.serve import Priority, ServeConfig, Shed
    from repro.trustzone.worlds import make_platform

    fingerprints = np.random.default_rng(11).integers(
        0, 256, size=(sessions, 49, 43), dtype=np.uint8)
    # Small keystream chunks keep the per-session cache working set
    # proportional to actual traffic (one request per session), not to
    # the 64 KiB default a 3-session service amortizes happily.
    service, loop, handles = serving_stack(
        make_platform(seed=b"bench-concurrency-%d" % sessions,
                      key_bits=KEY_BITS), model,
        ServeConfig(max_batch=32, ring_slots=256, session_capacity=sessions,
                    keystream_chunk_bytes=4096, num_workers=2, strict=False),
        [Priority.INTERACTIVE if index < sessions // 2 else Priority.BATCH
         for index in range(sessions)])

    def drive() -> None:
        pending = deque(zip(handles, fingerprints))
        while pending:
            wave = [pending.popleft() for _ in range(min(128, len(pending)))]
            for pair, verdict in zip(wave, service.submit_many(wave)):
                if isinstance(verdict, Shed):
                    pending.append(pair)
            loop.tick()
            service.clock.advance_ms(loop.tick_ms)
        loop.run_until_idle(force=True)

    return service, drive


def storm_testbed(devices: int):
    """A fresh two-tenant fleet of ``devices`` pooled devices on an
    8-shard :class:`~repro.fleet.FleetDirector`, and the seeded fault
    schedule of the 10^5-device storm.

    Returns ``(fleet, director, plan)``; the storm is
    ``director.run_storm(fleet.cohorts)``, run under ``plan`` when
    installed.  The schedule's rules count RPCs and shard operations
    from the start of the storm, so it fits the 10^5 fleet; a 10^4
    fleet would reach the drop windows and the crash at a different
    point of its storm, or not at all.
    """
    from repro.faults.plan import (FaultPlan, crash_nth_shard_op,
                                   drop_nth_fleet_rpc,
                                   tear_nth_journal_append)
    from repro.fleet import DeviceFleet, FleetDirector
    from repro.hw.timing import VirtualClock

    cohorts_per_tenant = 5
    clock = VirtualClock()
    # One fleet seed for every size: deterministic_keypair is
    # process-cached per (context, bits), so each tenant's RSA cost is
    # paid once and storms of different sizes compare batched
    # symmetric-crypto work only.
    fleet = DeviceFleet(clock, key_bits=KEY_BITS, seed=b"bench-fleet")
    per_cohort = max(1, devices // (len(fleet.tenants) * cohorts_per_tenant))
    for tenant in fleet.tenants:
        for index in range(cohorts_per_tenant):
            fleet.build_cohort(tenant, f"{tenant}-{devices}-c{index}",
                               per_cohort)
    director = FleetDirector(
        clock, [f"shard-{index:02d}" for index in range(8)], fleet.tenants)
    plan = FaultPlan(41, [
        drop_nth_fleet_rpc(5_000, span=64),
        drop_nth_fleet_rpc(60_000, span=64),
        drop_nth_fleet_rpc(150_000, span=64),
        crash_nth_shard_op(40_000),
        tear_nth_journal_append(60_000),
    ])
    return fleet, director, plan
