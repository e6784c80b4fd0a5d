"""Deterministic fault injection for every layer of the stack.

Usage::

    from repro import faults

    plan = faults.FaultPlan(seed=7, rules=[
        faults.drop_nth_bus_write(3),
        faults.crash_enclave_in_state("attested"),
    ])
    with faults.installed(plan):
        ...run the workload...
    print("\\n".join(plan.transcript_lines()))

While no plan is installed the hooks reduce to one attribute load and a
``None`` check per site — see :mod:`repro.faults.hooks`.
"""

from repro.faults.hooks import current, install, installed, uninstall
from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "plan": [
        "FaultEvent", "FaultPlan", "FaultRule",
        "drop_nth_bus_write", "corrupt_nth_bus_write", "corrupt_nth_bus_read",
        "skip_nth_scrub", "rng_exhaustion_at", "corrupt_channel_frame",
        "drop_channel_frame", "crash_enclave_in_state", "random_plan",
        "corrupt_nth_ring_frame", "stall_nth_ring_reserve",
        "skew_nth_deadline", "drop_nth_keystream_chunk",
        "panic_nth_worker_invoke", "random_serve_plan",
        "drop_nth_fleet_rpc", "drop_nth_fleet_reply", "crash_nth_shard_op",
        "tear_nth_journal_append", "random_fleet_plan",
    ],
})
__all__ += ["install", "installed", "uninstall", "current"]
