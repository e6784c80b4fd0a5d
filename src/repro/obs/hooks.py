"""Global installation point for the telemetry bundle.

Instrumented modules (``sanctuary/lifecycle.py``, ``serve/service.py``,
``serve/loop.py``, ``tflm/interpreter.py``, ``eval/chaos.py``) import
this module and guard every instrumentation site with::

    if _obs.TELEMETRY is not None:
        ...record a span / observe a histogram...

so the disabled cost is a single module-attribute load and ``None``
check — nothing is allocated and no function is called.

The install functions come from :func:`repro.hookslot.slot`, the same
slot :mod:`repro.faults.hooks` uses.
"""

from __future__ import annotations

from repro.hookslot import slot

__all__ = ["TELEMETRY", "installed", "install", "uninstall", "current"]

# The single process-wide telemetry bundle, or None when telemetry is off.
TELEMETRY = None

install, uninstall, current, installed = slot(globals(), "TELEMETRY",
                                              "a telemetry bundle")
