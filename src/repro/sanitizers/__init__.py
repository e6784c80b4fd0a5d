"""Opt-in runtime sanitizers: secret-buffer lifetimes, ring protocol.

The static analysis battery (:mod:`repro.analysis`) proves hygiene
properties over *code paths*; this package checks the complementary
properties over *runtime state*, the way ASan/TSan complement a
compiler's warnings:

:class:`SecretSanitizer`
    Tracks every buffer the secret caches take custody of, asserts the
    zeroized-on-free contract when it is scrubbed, and sweeps resident
    simulated DRAM for stray copies at teardown.
:class:`RingSanitizer`
    A per-endpoint state machine over every
    :class:`~repro.sanctuary.shm.SlotRing`: reserve→commit and
    peek→release must alternate; violations raise immediately with
    the broken invariant named.

Both are **zero-cost when disabled**: instrumented modules guard every
hook with ``if hooks.STATE is not None`` — the same pattern as
:mod:`repro.faults` and :mod:`repro.obs`.  Enable them per test::

    from repro import sanitizers

    with sanitizers.hooks.installed(sanitizers.Sanitizers.full()):
        ...drive serving...

or request the ``sanitizers`` pytest fixture, which installs a full
bundle for the test and checks ring quiescence afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sanitizers import hooks
from repro.sanitizers.ring import RingSanitizer
from repro.sanitizers.secret import SecretSanitizer

__all__ = ["Sanitizers", "SecretSanitizer", "RingSanitizer", "hooks"]


@dataclass
class Sanitizers:
    """The bundle :data:`repro.sanitizers.hooks.STATE` points at."""

    secrets: SecretSanitizer | None = None
    rings: RingSanitizer | None = None

    @classmethod
    def full(cls) -> "Sanitizers":
        return cls(secrets=SecretSanitizer(), rings=RingSanitizer())
