"""Global installation point for runtime sanitizers.

Instrumented modules (``crypto/custody.py``, ``sanctuary/shm.py``,
``serve/service.py``) import this module and guard every hook site
with::

    if _sanitizers.STATE is not None:
        ...dispatch into the sanitizer...

the same :func:`repro.hookslot.slot` as :mod:`repro.faults.hooks` and
:mod:`repro.obs.hooks`: the disabled cost is a single module-attribute
load and ``None`` check — nothing is allocated and no function is
called, so production code paths pay nothing when sanitizers are off.
"""

from __future__ import annotations

from repro.hookslot import slot

__all__ = ["STATE", "installed", "install", "uninstall", "current"]

# The single process-wide sanitizer bundle, or None when checking is
# off.  A bundle always holds both sanitizers (``secrets`` and
# ``rings``), so a hook site needs no second guard — see
# :class:`repro.sanitizers.Sanitizers`.
STATE = None

install, uninstall, current, installed = slot(globals(), "STATE",
                                              "a sanitizer bundle")
