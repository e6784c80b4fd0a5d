"""Virtual-clock SLOs of the serving core and the fleet control plane.

Simulated latency is host-independent — every input to the event loop
and the storm is deterministic — so these are hard bounds checked as
plain tests.  ``benchmarks/test_wallclock.py`` times the same drivers
in host wall-clock.
"""

from __future__ import annotations

from repro.eval.bench import (FLEET_P99_SLO_MS,
                              SERVING_CONCURRENCY_P99_SLO_MS,
                              concurrency_testbed, storm_testbed)
from repro.faults import hooks as fault_hooks
from tests.helpers import sequential_testbed, serving_testbed


def test_1000_sessions_meet_the_p99_slo_without_shedding(pretrained_model):
    """1000 concurrent sessions, half interactive, one request each:
    the simulated p99 stays under the SLO, and with unbounded
    admission budgets nothing accepted is shed (graceful mode may only
    shed-and-retry at the ring)."""
    service, drive = concurrency_testbed(pretrained_model, 1000)
    drive()
    percentiles = service.latency_percentiles()
    stats = service.stats()
    service.teardown()
    assert stats.requests_completed == 1000, stats
    assert (SERVING_CONCURRENCY_P99_SLO_MS >= percentiles["p99_ms"]
            >= percentiles["p95_ms"] >= percentiles["p50_ms"] > 0), percentiles
    assert stats.admission_shed == 0, stats


def test_fleet_storm_meets_the_p99_slo_and_reconciles():
    """The seeded 10^5-device, 8-shard storm drains with nothing
    stalled and the p99 enrollment latency inside the SLO, with the
    faults actually firing; after restarting any dark shard, every
    granted device holds exactly one live license, the journals hold
    every grant, and a sampled audit chain verifies offline."""
    fleet, director, plan = storm_testbed(100_000)
    with fault_hooks.installed(plan):
        report = director.run_storm(fleet.cohorts)
    assert fleet.device_count == 100_000 and len(director.shards) == 8
    assert report.completed, report          # no device stalled
    assert FLEET_P99_SLO_MS >= report.p99_ms >= report.p50_ms > 0, report
    assert plan.events, "the seeded faults never fired"
    for shard in director.shards.values():
        if not shard.up:
            shard.restart()
    director.reconcile()
    assert len(director.live_licenses()) == report.granted, report
    assert report.journal_records >= report.granted, report
    sampled = next(iter(director.shards.values()))
    sampled.audit.seal()
    assert sampled.audit.verify() == sampled.audit.head


def test_batched_serving_costs_fewer_sim_ms_than_sequential(
        pretrained_model):
    """At batch 32 the serving core spends less simulated time per
    request than the paper's one-enclave, one-query-at-a-time path."""
    requests = 64
    baseline, run_baseline = sequential_testbed(
        pretrained_model, b"bench-serving", requests)
    clock = baseline.platform.soc.clock
    start = clock.now_ms
    run_baseline()
    sequential_ms = (clock.now_ms - start) / requests
    baseline.teardown()

    service, run_batched = serving_testbed(
        pretrained_model, b"bench-serving-32", 32, requests)
    start = service.clock.now_ms
    run_batched()
    batched_ms = (service.clock.now_ms - start) / requests
    assert service.stats().requests_completed == requests
    service.teardown()
    assert 0 < batched_ms < sequential_ms, (batched_ms, sequential_ms)
