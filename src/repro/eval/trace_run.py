"""A fully-traced provision→serve run (backs ``repro-omg trace``).

Builds a platform, installs a :class:`~repro.obs.Telemetry` bundle on
its virtual clock, and drives the multi-session serving stack through a
seeded traffic pattern.  Everything the observability subsystem
instruments fires along the way: enclave launch/boot/attest spans from
the worker pool's provisioning, tick/batch spans and queue/ring
metrics from the serving loop and service, keystream cache counters from the crypto
layer, and (optionally) per-op interpreter spans.

Returns the telemetry bundle (for export) plus the service's structured
:class:`~repro.serve.ServingStats` snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.obs import Telemetry, hooks as obs_hooks

__all__ = ["run_traced_serving"]


def run_traced_serving(requests: int = 12, max_batch: int = 4,
                       num_workers: int = 2, num_sessions: int = 2,
                       seed: int = 7, op_profiling: bool = False,
                       model=None, trace_capacity: int = 4096):
    """Provision a worker pool and serve ``requests`` traced requests.

    Returns ``(telemetry, stats)``.  ``seed`` drives the synthetic
    fingerprint traffic, so two runs with equal arguments export
    identical virtual-clock traces.
    """
    from repro.core.parties import Vendor
    from repro.eval.pretrained import standard_model
    from repro.serve import ServeConfig, ServingLoop, ServingService
    from repro.trustzone.worlds import make_platform

    if model is None:
        model, _ = standard_model()
    platform = make_platform(seed=b"trace-run", key_bits=768)
    telemetry = Telemetry(platform.soc.clock, trace_capacity=trace_capacity,
                          op_profiling=op_profiling)
    with obs_hooks.installed(telemetry):
        vendor = Vendor("ml-vendor", model, key_bits=768)
        # Pool construction provisions every worker: launch, attest,
        # license exchange — all of it lands in the trace.
        service = ServingService(
            platform, vendor,
            ServeConfig(max_batch=max_batch, num_workers=num_workers))
        loop = ServingLoop(service)
        handles = [service.open_session() for _ in range(num_sessions)]
        spec = service.fingerprint_shape
        rng = np.random.default_rng(seed)
        fingerprints = rng.integers(
            0, 256, size=(requests,) + spec, dtype=np.uint8)
        for index, fingerprint in enumerate(fingerprints):
            service.submit(handles[index % num_sessions], fingerprint)
            if (index + 1) % max_batch == 0:
                loop.tick()
        loop.run_until_idle(force=True)
        stats = service.stats()
        for handle in handles:
            service.close_session(handle)
        service.teardown()
    return telemetry, stats
