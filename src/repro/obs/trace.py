"""Virtual-clock tracing: spans, context propagation, bounded buffer.

Every span carries **dual stamps**: the simulated platform time (virtual
nanoseconds from :class:`repro.hw.timing.VirtualClock`, also expressed
as cycles of a reference core) and the host wall clock.  The virtual
stamps are the ones that matter for the paper's cost model — they are
deterministic and replayable; the wall stamps exist only to profile the
*simulator itself* (how long a kernel really took on the host) and are
explicitly labelled as non-deterministic in every export.

Span and trace identifiers are sequential counters, never random, so a
trace of a seeded run is byte-for-byte reproducible (the determinism
analysis rule bans hidden entropy; the single wall-clock read below
carries the repo's one sanctioned waiver for telemetry).

:class:`SpanContext` serializes to 16 bytes so a parent identity can
cross the enclave boundary inside a mailbox message and be re-attached
on the other side (``Tracer.inject`` / ``Tracer.extract``).
"""

from __future__ import annotations

import struct
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ObsError
from repro.obs.redact import redact

__all__ = [
    "DEFAULT_FREQ_HZ", "Span", "SpanContext", "TraceBuffer", "Tracer",
]

# Reference frequency for cycle stamps: the platform's big cores.
DEFAULT_FREQ_HZ = 2.4e9

_CTX = struct.Struct("<QQ")


def _wall_ns() -> int:
    """Host wall clock, profiling metadata only — never affects behaviour."""
    return time.perf_counter_ns()  # analysis: allow(determinism)


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: (trace_id, span_id)."""

    trace_id: int
    span_id: int

    def to_bytes(self) -> bytes:
        """16-byte wire form, small enough for any mailbox message."""
        return _CTX.pack(self.trace_id, self.span_id)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SpanContext":
        if len(data) != _CTX.size:
            raise ObsError(
                f"span context must be {_CTX.size} bytes, got {len(data)}")
        trace_id, span_id = _CTX.unpack(data)
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation; values pass the :func:`redact` gate on entry."""

    __slots__ = (
        "name", "context", "parent_id", "start_v_ns", "start_wall_ns",
        "end_v_ns", "end_wall_ns", "attributes", "events", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, context: SpanContext,
                 parent_id: int, start_v_ns: int, start_wall_ns: int) -> None:
        self._tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.start_v_ns = start_v_ns
        self.start_wall_ns = start_wall_ns
        self.end_v_ns: int | None = None
        self.end_wall_ns: int | None = None
        self.attributes: dict = {}
        self.events: list[dict] = []

    @property
    def trace_id(self) -> int:
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        return self.context.span_id

    @property
    def ended(self) -> bool:
        return self.end_v_ns is not None

    def set_attribute(self, name, value) -> None:
        """Attach one attribute; ``value`` is redacted before storage."""
        self.attributes[str(name)] = redact(value)

    def set_attributes(self, **attributes) -> None:
        for attr_name, value in attributes.items():
            self.set_attribute(attr_name, value)

    def add_event(self, name: str, **attributes) -> None:
        """A point-in-time annotation stamped on both clocks."""
        self.events.append({
            "name": str(name),
            "v_ns": self._tracer.clock.now_ns,
            "wall_ns": _wall_ns(),
            "attributes": {str(k): redact(v) for k, v in attributes.items()},
        })

    def end(self) -> None:
        self._tracer.end_span(self)

    # --- derived readings ---------------------------------------------------

    @property
    def duration_v_ns(self) -> int:
        if self.end_v_ns is None:
            raise ObsError(f"span {self.name!r} has not ended")
        return self.end_v_ns - self.start_v_ns

    @property
    def duration_wall_ns(self) -> int:
        if self.end_wall_ns is None:
            raise ObsError(f"span {self.name!r} has not ended")
        return self.end_wall_ns - self.start_wall_ns

    def cycles_at(self, freq_hz: float | None = None) -> int:
        """Virtual duration as cycles of a ``freq_hz`` core."""
        freq = self._tracer.freq_hz if freq_hz is None else freq_hz
        if freq <= 0:
            raise ObsError("frequency must be positive")
        return int(self.duration_v_ns * freq / 1e9)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ended" if self.ended else "open"
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, {state})")


class TraceBuffer:
    """Bounded in-memory store of finished spans (oldest dropped first)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ObsError("trace buffer capacity must be positive")
        self.capacity = capacity
        self._spans: deque = deque(maxlen=capacity)
        self.appended = 0
        self.dropped = 0

    def append(self, span: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self.appended += 1

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def spans(self) -> list:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()


class Tracer:
    """Creates spans stamped on a virtual clock; finished spans land in
    a bounded :class:`TraceBuffer`.

    Parenting is explicit (``parent=``) or implicit via the span stack
    maintained by the :meth:`span` context manager.  ``inject`` /
    ``extract`` move a :class:`SpanContext` across a byte boundary.
    """

    def __init__(self, clock, capacity: int = 4096,
                 freq_hz: float = DEFAULT_FREQ_HZ) -> None:
        if freq_hz <= 0:
            raise ObsError("frequency must be positive")
        self.clock = clock
        self.freq_hz = freq_hz
        self.buffer = TraceBuffer(capacity)
        self._next_trace_id = 1
        self._next_span_id = 1
        self._stack: list[Span] = []

    # --- span lifecycle -----------------------------------------------------

    def start_span(self, name: str, parent=None,
                   attributes: dict | None = None) -> Span:
        """Begin a span.  ``parent`` may be a :class:`Span`, a
        :class:`SpanContext`, propagated context bytes, or ``None`` (use
        the innermost active ``span()`` block, else start a new trace).
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        if isinstance(parent, (bytes, bytearray, memoryview)):
            parent = SpanContext.from_bytes(bytes(parent))
        if isinstance(parent, Span):
            parent = parent.context
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = 0
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        context = SpanContext(trace_id=trace_id, span_id=self._next_span_id)
        self._next_span_id += 1
        span = Span(self, str(name), context, parent_id,
                    start_v_ns=self.clock.now_ns, start_wall_ns=_wall_ns())
        if attributes:
            span.set_attributes(**attributes)
        return span

    def end_span(self, span: Span) -> None:
        if span.ended:
            raise ObsError(f"span {span.name!r} already ended")
        span.end_v_ns = self.clock.now_ns
        span.end_wall_ns = _wall_ns()
        self.buffer.append(span)

    @contextmanager
    def span(self, name: str, parent=None, **attributes):
        """Scope a span to a ``with`` block; nested blocks auto-parent."""
        span = self.start_span(name, parent=parent, attributes=attributes)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end_span(span)

    def record_span(self, name: str, start_v_ns: int, end_v_ns: int,
                    parent=None, **attributes) -> Span:
        """Record an already-measured interval as a finished span.

        Used by layers that account costs on the virtual clock first and
        report afterwards (e.g. enclave life-cycle phases); both wall
        stamps collapse to "now".
        """
        if end_v_ns < start_v_ns:
            raise ObsError("span cannot end before it starts")
        span = self.start_span(name, parent=parent, attributes=attributes)
        wall = _wall_ns()
        span.start_v_ns = int(start_v_ns)
        span.start_wall_ns = wall
        span.end_v_ns = int(end_v_ns)
        span.end_wall_ns = wall
        self.buffer.append(span)
        return span

    # --- context ------------------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def inject(self) -> bytes:
        """Wire form of the innermost active span (b"" if none)."""
        span = self.current_span
        return b"" if span is None else span.context.to_bytes()

    def extract(self, data) -> SpanContext | None:
        """Inverse of :meth:`inject`; empty payloads mean "no parent"."""
        if not data:
            return None
        return SpanContext.from_bytes(bytes(data))

    def finished_spans(self) -> list:
        return self.buffer.spans()
