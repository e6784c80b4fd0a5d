"""Secret-safe observability: virtual-clock tracing, metrics, exporters.

The subsystem has four pieces (see docs/ARCHITECTURE.md "Observability"):

* :mod:`repro.obs.trace` — ``Span``/``Tracer`` stamped on the platform
  :class:`~repro.hw.timing.VirtualClock` with cycle and wall-clock dual
  stamps, context propagation across the enclave boundary, and a
  bounded ``TraceBuffer``;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms;
* :mod:`repro.obs.export` — Chrome-trace JSON, Prometheus text, and a
  human summary;
* :mod:`repro.obs.redact` — the secret-safety gate every value passes
  before it may be stored in a span or metric.

A :class:`Telemetry` bundle ties one tracer and one registry together
and is turned on process-wide via :mod:`repro.obs.hooks` (the same
zero-cost global-``None`` pattern as :mod:`repro.faults.hooks`):

    telemetry = Telemetry(platform.soc.clock)
    with obs.hooks.installed(telemetry):
        ...provision and serve...
    obs.write_chrome_trace(telemetry.tracer, "trace.json")
"""

from __future__ import annotations

from repro.lazy import attach
from repro.obs import hooks

# ``redact`` is also a submodule name, so it is bound eagerly (see
# :mod:`repro.lazy`); the rest resolve on first use.
from repro.obs.redact import redact

__getattr__, __dir__, __all__ = attach(__name__, {
    "export": ["render_summary", "to_chrome_trace", "to_prometheus",
               "write_chrome_trace"],
    "metrics": ["DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
                "MetricsRegistry"],
    "telemetry": ["Telemetry"],
    "trace": ["DEFAULT_FREQ_HZ", "Span", "SpanContext", "TraceBuffer",
              "Tracer"],
})
__all__ += ["hooks", "redact"]
