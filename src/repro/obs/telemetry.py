"""The :class:`Telemetry` bundle :mod:`repro.obs.hooks` installs."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import DEFAULT_FREQ_HZ, Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """One tracer + one metrics registry + feature flags.

    ``op_profiling`` turns on per-operator spans inside
    :meth:`repro.tflm.interpreter.Interpreter.invoke` (off by default —
    it is the only instrumentation hot enough to need its own flag).
    """

    def __init__(self, clock, trace_capacity: int = 4096,
                 freq_hz: float = DEFAULT_FREQ_HZ,
                 op_profiling: bool = False) -> None:
        self.tracer = Tracer(clock, capacity=trace_capacity, freq_hz=freq_hz)
        self.metrics = MetricsRegistry()
        self.op_profiling = bool(op_profiling)

    @property
    def clock(self):
        return self.tracer.clock
