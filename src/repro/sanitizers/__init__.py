"""Opt-in runtime sanitizers: secret-buffer lifetimes, ring protocol.

The static analysis battery (:mod:`repro.analysis`) proves hygiene
properties over *code paths*; this package checks the complementary
properties over *runtime state*, the way ASan/TSan complement a
compiler's warnings:

:class:`SecretSanitizer`
    Tracks every buffer the secret caches take custody of, asserts the
    zeroized-on-free contract when it is scrubbed, and runs the one
    teardown leak sweep (unlocked DRAM, flash, named surfaces).
:class:`RingSanitizer`
    A per-endpoint state machine over every
    :class:`~repro.sanctuary.shm.SlotRing`: reserve→commit and
    peek→release must alternate; violations raise immediately with
    the broken invariant named.

Both are **zero-cost when disabled**: instrumented modules guard every
hook with ``if hooks.STATE is not None`` (a bundle holds both) —
the same pattern as :mod:`repro.faults` and :mod:`repro.obs`.  Enable
them per test::

    from repro import sanitizers

    with sanitizers.hooks.installed(sanitizers.Sanitizers.full()):
        ...drive serving...

or request the ``sanitizers`` pytest fixture, which installs a full
bundle for the test and checks ring quiescence afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lazy import attach
from repro.sanitizers import hooks

if TYPE_CHECKING:
    from repro.sanitizers.ring import RingSanitizer
    from repro.sanitizers.secret import SecretSanitizer

__getattr__, __dir__, __all__ = attach(__name__, {
    "ring": ["RingSanitizer"],
    "secret": ["SecretSanitizer"],
})
__all__ += ["Sanitizers", "hooks"]


@dataclass
class Sanitizers:
    """The bundle :data:`repro.sanitizers.hooks.STATE` points at."""

    secrets: SecretSanitizer
    rings: RingSanitizer

    @classmethod
    def full(cls) -> "Sanitizers":
        from repro.sanitizers.ring import RingSanitizer
        from repro.sanitizers.secret import SecretSanitizer

        return cls(secrets=SecretSanitizer(), rings=RingSanitizer())
