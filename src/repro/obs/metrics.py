"""Counters, gauges, and fixed-bucket histograms.

Instruments live in a :class:`MetricsRegistry` keyed by name; each
instrument holds one series per label set.  Label *values* pass the
:func:`repro.obs.redact` gate before becoming series keys, and observed
values must be real numbers — byte strings and arrays are rejected, so
no secret material can hide in a metric.

Counters and gauges whose event already has a plain tally on its
owning object are *pulled*, not pushed: the owner hands
:meth:`MetricsRegistry.register` a collector, and every read of the
registry (``get``, iteration, ``len`` — so every snapshot and export)
re-runs the collectors and rebuilds those series from the live tallies.
Only events with no owner state to read afterwards (histogram
observations, spans, mid-run fleet gauges) are pushed, behind the
caller's zero-cost ``if _obs.TELEMETRY is not None:`` guard (see
:mod:`repro.obs.hooks`).

Bucket bounds are fixed at histogram creation (Prometheus-style
cumulative ``le`` buckets plus +Inf), which keeps observation O(log n)
and exports deterministic.
"""

from __future__ import annotations

import bisect
import math
import re

from repro.errors import ObsError
from repro.obs.redact import redact

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
]

# Default latency-ish buckets (virtual milliseconds).
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1000.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObsError(f"invalid metric name {name!r}")
    return name


def _as_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ObsError(
            f"metric values must be numbers, got {type(value).__name__}")
    number = float(value)
    if math.isnan(number):
        raise ObsError("metric values must not be NaN")
    return number


def _label_key(labels: dict) -> tuple:
    key = []
    for name in sorted(labels):
        if not _LABEL_RE.match(name):
            raise ObsError(f"invalid label name {name!r}")
        key.append((name, str(redact(labels[name]))))
    return tuple(key)


class _Instrument:
    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict = {}

    def labelsets(self) -> list[dict]:
        return [dict(key) for key in sorted(self._series)]

    def _sorted_series(self):
        return sorted(self._series.items())


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        step = _as_number(amount)
        if step < 0:
            raise ObsError("counters can only go up")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + step

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, ring occupancy)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = _as_number(value)

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + _as_number(amount)

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)


class Histogram(_Instrument):
    """Fixed-bucket histogram with cumulative export and quantiles."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets=DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ObsError("bucket bounds must be finite (+Inf is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObsError("bucket bounds must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        number = _as_number(value)
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            # counts has one slot per finite bound plus the +Inf overflow.
            state = self._series[key] = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0, "count": 0,
            }
        state["counts"][bisect.bisect_left(self.buckets, number)] += 1
        state["sum"] += number
        state["count"] += 1

    def count(self, **labels) -> int:
        state = self._series.get(_label_key(labels))
        return 0 if state is None else state["count"]

    def sum(self, **labels) -> float:
        state = self._series.get(_label_key(labels))
        return 0.0 if state is None else state["sum"]

    def bucket_counts(self, **labels) -> list[int]:
        state = self._series.get(_label_key(labels))
        if state is None:
            return [0] * (len(self.buckets) + 1)
        return list(state["counts"])

    def quantile(self, q: float, **labels) -> float:
        """Bucket-interpolated quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObsError("quantile must be in [0, 1]")
        state = self._series.get(_label_key(labels))
        if state is None or state["count"] == 0:
            return 0.0
        target = q * state["count"]
        cumulative = 0
        for i, bucket_count in enumerate(state["counts"]):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                lo = 0.0 if i == 0 else self.buckets[i - 1]
                if i >= len(self.buckets):
                    # Overflow bucket has no upper bound; report its floor.
                    return self.buckets[-1]
                hi = self.buckets[i]
                fraction = (target - previous) / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]


_PULLED_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name."""

    def __init__(self) -> None:
        self._instruments: dict = {}
        self._collectors: list = []

    def _get_or_create(self, cls, name, help, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, help, **kwargs)
        elif not isinstance(instrument, cls):
            raise ObsError(
                f"metric {name!r} is a {instrument.kind}, not a {cls.kind}")
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def register(self, collector) -> None:
        """Pull ``collector()`` on every read of the registry.

        A collector yields ``(kind, name, help, labels, value)`` with
        ``kind`` ``"counter"`` or ``"gauge"``; values and labels pass
        the same number check and redact gate as pushed ones.  Series
        fed by several collectors sum.  Registering the same collector
        again is a no-op.
        """
        if collector not in self._collectors:
            self._collectors.append(collector)

    def _collect(self) -> None:
        totals: dict = {}
        for collector in self._collectors:
            for kind, name, help, labels, value in collector():
                cls = _PULLED_KINDS.get(kind)
                if cls is None:
                    raise ObsError(
                        f"collected metric {name!r} must be a counter or "
                        f"gauge, not {kind!r}")
                instrument = self._get_or_create(cls, name, help)
                key = (instrument, _label_key(labels))
                totals[key] = totals.get(key, 0.0) + _as_number(value)
        for (instrument, key), value in totals.items():
            instrument._series[key] = value

    def get(self, name: str):
        self._collect()
        return self._instruments.get(name)

    def __len__(self) -> int:
        self._collect()
        return len(self._instruments)

    def __iter__(self):
        self._collect()
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def snapshot(self) -> dict:
        """Plain-data rendering of every instrument (for exporters)."""
        out: dict = {}
        for instrument in self:
            series = []
            for key, state in instrument._sorted_series():
                entry: dict = {"labels": dict(key)}
                if instrument.kind == "histogram":
                    entry.update(
                        counts=list(state["counts"]), sum=state["sum"],
                        count=state["count"])
                else:
                    entry["value"] = state
                series.append(entry)
            out[instrument.name] = {
                "kind": instrument.kind, "help": instrument.help,
                "series": series,
            }
            if instrument.kind == "histogram":
                out[instrument.name]["buckets"] = list(instrument.buckets)
        return out
