"""Secret-buffer lifetime sanitizer.

The static ``zeroization`` rule proves every *code path* from a
key-material acquisition reaches a scrub; this sanitizer checks the
complementary *runtime* property on the buffers themselves:

* every secret buffer a cache takes custody of is mutable (immutable
  ``bytes`` can never be zeroized in place — ``scrub_secret`` on one
  is a silent no-op, which is exactly the bug class this catches),
* when a buffer is scrubbed it really is all-zero afterwards,
* at teardown no tracked buffer is still live, and no secret the
  sanitizer saw is on an untrusted surface, raw or hex-encoded (the
  one leak sweep; every chaos schedule ends with it).

Each secret's marker is its most byte-diverse 48-byte window.  The
sanitizer keeps that *copy* for the teardown sweep: deliberate
test-only behavior, bounded by ``_MAX_MARKERS``, so that a stray copy
of the secret elsewhere can be found.  Never install sanitizers
outside tests/debugging.
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import SanitizerViolation

__all__ = ["SecretSanitizer"]

_MARKER_LEN = 48
# A marker that is not all zero holds no run of _MARKER_LEN zeros, so
# collapsing such runs to one of that length keeps every match and
# spares the sweep the scrubbed, zero bulk of DRAM.
_ZERO_RUN = re.compile(rb"\x00{%d,}" % _MARKER_LEN)
_MAX_MARKERS = 256


def _leaves(value):
    """Flatten composite cache entries into leaf buffers."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _marker(leaf) -> bytes | None:
    """The window (one every 64 bytes) of a buffer-ish leaf with the
    most distinct byte values, or None for non-buffer values (counters
    in composite entries).  A low-entropy window (a run of zero bias
    bytes, say) would match scrubbed memory."""
    if isinstance(leaf, np.ndarray):
        blob = leaf.tobytes()
    elif isinstance(leaf, (bytes, bytearray, memoryview)):
        blob = bytes(leaf)
    else:
        return None
    best = blob[:_MARKER_LEN]
    best_score = len(set(best))
    for start in range(0, max(1, len(blob) - _MARKER_LEN), 64):
        window = blob[start:start + _MARKER_LEN]
        score = len(set(window))
        if score > best_score:
            best, best_score = window, score
    return best


def _is_zeroed(leaf) -> bool:
    if isinstance(leaf, np.ndarray):
        return not leaf.any()
    if isinstance(leaf, (bytes, bytearray, memoryview)):
        return not any(bytes(leaf))
    return True


def _unlocked_dram(soc):
    """``(name, bytes)`` per resident DRAM run of ``soc``, with every
    TZASC-locked span (secure-only or core-bound) zeroed."""
    locked = [region for region, policy in soc.tzasc.regions()
              if policy.secure_only or policy.bound_core is not None]
    for base, length in soc.memory.resident_runs():
        window = bytearray(soc.memory.read(base, length))
        for region in locked:
            lo = max(base, region.base)
            hi = min(base + length, region.end)
            if lo < hi:
                window[lo - base:hi - base] = bytes(hi - lo)
        yield (f"unlocked DRAM (run base {base:#x})",
               _ZERO_RUN.sub(bytes(_MARKER_LEN), window))


class SecretSanitizer:
    """Tracks live secret buffers and their zeroized-on-free contract."""

    def __init__(self) -> None:
        # id(buffer) -> (buffer, origin).  Strong references: the
        # sanitizer must still see the buffer at teardown even if the
        # owner dropped it without scrubbing (that *is* the bug).
        self._live: dict[int, tuple[object, str]] = {}
        # marker -> origin of the first secret that produced it; kept
        # even after the original is scrubbed, because the interesting
        # leak is a *copy* that outlived the original.
        self._markers: dict[bytes, str] = {}
        self.tracked_total = 0
        self.scrubbed_total = 0

    def _remember(self, marker: bytes | None, origin: str) -> None:
        if marker and any(marker) and len(self._markers) < _MAX_MARKERS:
            self._markers.setdefault(marker, origin)

    # --- hook sites ----------------------------------------------------

    def on_track(self, value, origin: str) -> None:
        """A cache took custody of ``value`` (called from
        ``SecretCache.put``)."""
        for leaf in _leaves(value):
            marker = _marker(leaf)
            if marker is None:
                continue
            if isinstance(leaf, bytes):
                raise SanitizerViolation(
                    f"{origin} cached an immutable bytes secret "
                    f"({len(leaf)} bytes): it can never be zeroized in "
                    f"place; store a bytearray or numpy buffer")
            self._live[id(leaf)] = (leaf, origin)
            self.tracked_total += 1
            self._remember(marker, origin)

    def on_observe(self, data, origin: str) -> None:
        """Record a sweep marker for a secret the sanitizer does not
        own the lifetime of (decrypted model bytes in enclave DRAM, a
        client's input, a tenant key): it must be on no untrusted
        surface at teardown."""
        self._remember(_marker(data), origin)

    def on_scrub(self, leaf) -> None:
        """``scrub_secret`` finished with ``leaf`` (called per leaf,
        after zeroization)."""
        entry = self._live.pop(id(leaf), None)
        if not _is_zeroed(leaf):
            origin = entry[1] if entry else "an untracked owner"
            raise SanitizerViolation(
                f"secret buffer from {origin} still holds nonzero bytes "
                f"after scrub_secret() — immutable value or broken scrub")
        if entry is not None:
            self.scrubbed_total += 1

    # --- teardown ------------------------------------------------------

    def check_teardown(self, soc=None, surfaces=()) -> None:
        """Assert no tracked buffer is still live and no marker is on
        an untrusted surface, raw or hex-encoded: ``soc``'s unlocked
        DRAM and flash image, and each ``(name, bytes)`` in
        ``surfaces``.  Violations name origin and surface, never bytes.
        """
        problems = []
        for leaf, origin in self._live.values():
            if _is_zeroed(leaf):
                # Scrubbed in place without going through scrub_secret
                # (e.g. a numpy view another scrub already covered).
                continue
            problems.append(
                f"secret buffer from {origin} still live (never "
                f"scrubbed) at teardown")
        swept = list(surfaces)
        if soc is not None:
            swept.extend(_unlocked_dram(soc))
            swept.append(("untrusted flash", soc.flash.raw_bytes()))
        markers = [(marker, marker.hex().encode(), origin)
                   for marker, origin in self._markers.items()]
        for name, data in swept:
            for marker, hexed, origin in markers:
                if marker in data or hexed in data:
                    problems.append(f"secret bytes from {origin} in {name}")
        if problems:
            raise SanitizerViolation("; ".join(sorted(set(problems))))
