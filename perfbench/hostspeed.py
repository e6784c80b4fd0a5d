"""Host speed, sampled alongside the measured work.

The benchmark runs on small shared virtual machines whose speed drifts:
the same fixed loop can take twice as long in one minute as in the
next, with no steal time and CPU time equal to wall time.  A wall-clock
figure from one run therefore mixes the program's speed with the
host's.

:class:`HostMeter` separates the two.  While it is active, a timer
signal interrupts the program every ``interval_s`` of wall time and the
handler times a fixed probe: about a millisecond of interpreter work
that does not touch the program.  The probe's own time is kept out of
the measured wall time, and each slice of wall time between probes is
rescaled by how much slower than the reference the probes around it
ran::

    reference seconds = wall seconds x REFERENCE_PROBE_S / probe time

A program change cannot move the probe, so it shows in full; a host
that runs 30 % slower for a while slows the probe about as much and
cancels out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

_clock = time.perf_counter

# Median probe time on the reference host (2-vCPU x86-64 VM, Intel Xeon
# at 2.1 GHz, Python 3.11) at a quiet moment.  Only a scale: it makes a reference second
# about one wall second there.
REFERENCE_PROBE_S = 0.0007


def probe() -> float:
    """Seconds for a fixed piece of interpreter work: integer arithmetic,
    dict stores and string allocation.

    Pure Python on purpose.  Timed against many repeats of each
    workload's phase on a drifting host, a probe of this kind tracked
    their wall time well on all four workloads (correlation about 0.9);
    NumPy kernels on small arrays, FFTs, integer matmul and hashlib
    drifted in their own ways, and a probe that streams a large array
    ran twice as slow inside a workload as outside it, so the program's
    own memory traffic would have moved it.  The probe allocates one
    object the garbage collector tracks (a list of strings) and runs
    with the collector off, so the size of the program's heap cannot
    change its time either.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = _clock()
    total = 0
    table: dict[int, int] = {}
    for value in range(6000):
        total += (value * value) & 0xFFFF
        table[value & 1023] = total
    names = [str(value) for value in range(3000)]
    total += len(names)
    elapsed = _clock() - start
    if collecting:
        gc.enable()
    return elapsed


class HostMeter:
    """Context manager: the wall time of its body with probes
    interleaved, and the same time in reference seconds.

    Only one meter may be active at a time (it owns ``SIGALRM``).
    """

    # A slice of wall time is rescaled by the median of the probes up to
    # this many slices on either side of it: enough to shrug off one
    # interrupted probe, short enough (about half a second at the
    # default interval) to follow the host, whose speed can change
    # within a second.
    WINDOW = 2

    def __init__(self, interval_s: float | None = 0.1) -> None:
        # None: no probes, only the wall time (for traced phases, whose
        # spans a signal handler must not interleave).
        self.interval_s = interval_s
        # Wall seconds between probes; slice i ran between probe i and
        # probe i + 1.
        self.slices: list[float] = []
        self.probes: list[float] = []
        self._mark = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.slices.append(_clock() - self._mark)
        self.probes.append(probe())
        self._mark = _clock()

    def __enter__(self) -> "HostMeter":
        if self.interval_s is not None:
            self.probes.append(probe())
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        self._mark = _clock()
        return self

    def __exit__(self, *exc) -> None:
        # Disarm first: an alarm handled after the last slice was taken
        # would count that slice twice.
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.slices.append(_clock() - self._mark)
        if self.interval_s is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self.probes.append(probe())

    @property
    def wall_s(self) -> float:
        """The body's wall time, probes excluded."""
        return sum(self.slices)

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference's (1.3 = 30 % slower)."""
        if not self.probes:
            return float("nan")
        return statistics.median(self.probes) / REFERENCE_PROBE_S

    @property
    def reference_s(self) -> float:
        """The body's wall time at the reference host speed."""
        if not self.probes:
            return float("nan")
        total = 0.0
        for index, wall in enumerate(self.slices):
            nearby = self.probes[max(0, index - self.WINDOW):
                                 index + self.WINDOW + 2]
            total += wall * REFERENCE_PROBE_S / statistics.median(nearby)
        return total
