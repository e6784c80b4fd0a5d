"""Custody of secret buffers: in-place scrubbing and a scrub-on-evict LRU.

These sit below :mod:`repro.crypto.keycache`, which re-exports both
names and holds its keystream chunks in a :class:`SecretCache`.  Every
buffer a :class:`SecretCache` takes is reported to the secret
sanitizer, so its lifetime is checked at teardown.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import CryptoError
from repro.sanitizers import hooks as _sanitizers

__all__ = ["scrub_secret", "SecretCache"]


def scrub_secret(buf) -> None:
    """Zeroize a mutable secret buffer in place.

    Accepts ``bytearray``, ``memoryview``, and numpy arrays — the
    mutable shapes secrets take in :class:`SecretCache` and
    the keystream caches — and recurses into
    tuples/lists so composite entries (e.g. a session's pair of lane
    keys) are scrubbed element by element.  Immutable values
    (``bytes``) cannot be scrubbed in place and are ignored; callers
    that need scrub-on-evict must store mutable buffers.
    """
    if isinstance(buf, (tuple, list)):
        for item in buf:
            scrub_secret(item)
        return
    if isinstance(buf, np.ndarray):
        buf[...] = 0
    elif isinstance(buf, (bytearray, memoryview)):
        buf[:] = b"\x00" * len(buf)
    state = _sanitizers.STATE
    if state is not None:
        # Verifies the leaf really is zero now — catches immutable
        # ``bytes`` (the no-op branch above) and broken scrubs.
        state.secrets.on_scrub(buf)


class SecretCache:
    """Bounded LRU for secret values, scrubbed on eviction.

    ``get``/``put`` refresh recency; when the cache is full the least
    recently used entry is evicted and its value passed through
    :func:`scrub_secret` first.  ``discard``/``clear`` scrub too, so
    the only way material leaves this cache unscrubbed is an immutable
    ``bytes`` value (see :func:`scrub_secret`).
    """

    def __init__(self, capacity: int, on_evict=None) -> None:
        if capacity <= 0:
            raise CryptoError("SecretCache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        # Called with the cache key after an entry is scrubbed and
        # dropped (capacity eviction or explicit discard), so owners can
        # account for what left the cache.
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, cache_key) -> bool:
        return cache_key in self._entries

    def get(self, cache_key, default=None):
        if cache_key not in self._entries:
            self.misses += 1
            return default
        self.hits += 1
        self._entries.move_to_end(cache_key)
        return self._entries[cache_key]

    def put(self, cache_key, value) -> None:
        state = _sanitizers.STATE
        if state is not None:
            state.secrets.on_track(value, origin="SecretCache.put")
        if cache_key in self._entries:
            old = self._entries[cache_key]
            self._entries.move_to_end(cache_key)
            self._entries[cache_key] = value
            if old is not value:
                # Replacement drops the old buffer: scrub it first, per
                # the class contract (material never leaves unscrubbed).
                scrub_secret(old)
            return
        while len(self._entries) >= self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            scrub_secret(evicted)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted_key)
        self._entries[cache_key] = value

    def discard(self, cache_key) -> None:
        value = self._entries.pop(cache_key, None)
        if value is not None:
            scrub_secret(value)
            if self._on_evict is not None:
                self._on_evict(cache_key)

    def discard_if(self, predicate) -> int:
        """Scrub and drop every entry whose cache key matches."""
        victims = [k for k in self._entries if predicate(k)]
        for cache_key in victims:
            self.discard(cache_key)
        return len(victims)

    def clear(self) -> None:
        for value in self._entries.values():
            scrub_secret(value)
        self._entries.clear()
