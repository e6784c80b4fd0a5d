"""One implementation of the process-wide hook slot.

Three subsystems switch on process-wide: fault plans
(:mod:`repro.faults.hooks`), telemetry (:mod:`repro.obs.hooks`) and
runtime sanitizers (:mod:`repro.sanitizers.hooks`).  Each keeps its
installed object in a plain module global, and every instrumented site
guards on it directly::

    if _faults.PLAN is not None:
        ...dispatch into the plan...

so the disabled cost is a single module-attribute load and ``None``
check — nothing is allocated and no function is called.  :func:`slot`
builds the ``install``/``uninstall``/``current``/``installed`` quartet
over such a global by writing through the owning module's namespace,
which keeps that one-attribute-load guard intact.

This module sits at the bottom of the import graph (the crypto and hw
layers are themselves instrumented sites), so it imports nothing from
the package at module scope.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["slot"]


def slot(namespace: dict, name: str, what: str):
    """``(install, uninstall, current, installed)`` over
    ``namespace[name]``; ``what`` names the hooked object in errors
    (e.g. ``"a fault plan"``)."""

    def install(value) -> None:
        """Install ``value`` process-wide (refuses a second one)."""
        if namespace[name] is not None:
            from repro.errors import ReproError
            raise ReproError(f"{what} is already installed")
        namespace[name] = value

    def uninstall() -> None:
        """Remove the installed value (no-op if none is installed)."""
        namespace[name] = None

    def current():
        """The installed value, or ``None``."""
        return namespace[name]

    @contextmanager
    def installed(value):
        """Scope ``value`` to a ``with`` block (always uninstalls)."""
        install(value)
        try:
            yield value
        finally:
            uninstall()

    return install, uninstall, current, installed
