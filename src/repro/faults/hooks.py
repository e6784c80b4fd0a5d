"""Global installation point for fault plans.

Instrumented modules (``hw/bus.py``, ``hw/memory.py``, ``crypto/rng.py``,
``core/channels.py``, ``sanctuary/lifecycle.py``) import this module and
guard every hook site with::

    if _faults.PLAN is not None:
        ...dispatch into the plan...

so the disabled cost is a single module-attribute load and ``None``
check — nothing is allocated and no function is called.

The install functions come from :func:`repro.hookslot.slot`, which sits
below :mod:`repro.crypto.rng` in the import graph (the DRBG is itself
an instrumented site).
"""

from __future__ import annotations

from repro.hookslot import slot

__all__ = ["PLAN", "installed", "install", "uninstall", "current"]

# The single process-wide fault plan, or None when injection is off.
PLAN = None

install, uninstall, current, installed = slot(globals(), "PLAN",
                                              "a fault plan")
