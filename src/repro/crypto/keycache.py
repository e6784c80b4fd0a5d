"""Key-material caches: deterministic RSA pairs, session secrets, keystreams.

Every key in the simulation is derived deterministically from a context
string, so identical contexts always yield identical keys.  Caching the
prime generation (tens of milliseconds per 1024-bit pair) per context
makes repeated platform construction — every test builds platforms —
cheap after the first time.

The serving path (``repro.serve``) adds two more caches:

* :class:`SecretCache` — a bounded LRU for per-session secrets (open
  license grants, session keys).  Eviction *scrubs* the stored material
  in place before dropping the reference, so a capacity-limited cache
  never leaves stale key bytes lying around in host memory longer than
  its own bookkeeping.
* :class:`KeystreamCache` — per-session AES-CTR keystream chunks for
  the zero-copy rings.  GCM costs ~0.6 ms per call at any size (numpy
  dispatch overhead), which would dominate per-request serving; bulk
  keystream generated once per 64 KB chunk and XORed in place is
  microseconds per request.  Chunks regenerate deterministically from
  (session key, position) after eviction, so bounding the cache never
  loses data.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.modes import ctr_keystream
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.errors import CryptoError
from repro.faults import hooks as _faults
from repro.sanitizers import hooks as _sanitizers

__all__ = ["deterministic_keypair", "scrub_secret", "SecretCache",
           "KeystreamCache"]


@lru_cache(maxsize=256)
def deterministic_keypair(context: bytes, bits: int = 1024) -> RsaPrivateKey:
    """RSA key pair derived (and memoized) from ``context``."""
    return generate_keypair(bits, HmacDrbg(context, b"keycache"))


def scrub_secret(buf) -> None:
    """Zeroize a mutable secret buffer in place.

    Accepts ``bytearray``, ``memoryview``, and numpy arrays — the
    mutable shapes secrets take in the caches below — and recurses into
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
    if state is not None and state.secrets is not None:
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
        if state is not None and state.secrets is not None:
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

    def get_or_create(self, cache_key, factory):
        value = self.get(cache_key)
        if value is None:
            value = factory()
            self.put(cache_key, value)
        return value

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


class KeystreamCache:
    """Per-session AES-CTR keystream chunks for in-place seal/open.

    Chunk ``i`` of a lane is the CTR keystream for counter blocks
    ``[i * blocks_per_chunk, (i + 1) * blocks_per_chunk)`` under that
    lane's key with an all-zero 12-byte counter prefix.  Positions map
    to chunks deterministically, so an evicted chunk is simply
    regenerated — the cache bounds memory, never correctness.

    Chunks are cached under ``(session_id, key, index)``: the lane key
    is part of a chunk's identity, so one session's request and
    response lanes (same session id, different derived keys) can never
    alias each other's keystream bytes — reusing one lane's chunk for
    the other would seal two plaintexts under the same pad, the classic
    two-time-pad leak.  XOR-at-position is then safe because within a
    lane each keystream byte covers exactly one message byte (the
    serving layer gives every lane a strictly advancing position).
    """

    def __init__(self, capacity: int = 32, chunk_bytes: int = 65536) -> None:
        if chunk_bytes <= 0 or chunk_bytes % 16:
            raise CryptoError("chunk_bytes must be a positive multiple of 16")
        self.chunk_bytes = chunk_bytes
        self._chunks = SecretCache(capacity, on_evict=self._chunk_evicted)
        # AES key schedules, keyed by (session_id, lane key) so session
        # teardown can drop every schedule it owns — key material must
        # not outlive forget_session.
        self._ciphers: dict[tuple[int, bytes], AES] = {}
        # Chunks generated ahead of demand that no take() has touched
        # yet; one that leaves the cache while still in this set was
        # wasted work.
        self._prefetched_unused: set = set()
        self.prefetches = 0
        self.prefetch_waste = 0

    @property
    def evictions(self) -> int:
        return self._chunks.evictions

    @property
    def hits(self) -> int:
        return self._chunks.hits

    @property
    def misses(self) -> int:
        return self._chunks.misses

    def _chunk_evicted(self, cache_key) -> None:
        if cache_key in self._prefetched_unused:
            self._prefetched_unused.discard(cache_key)
            self.prefetch_waste += 1

    def _generate(self, session_id: int, key: bytes,
                  index: int) -> np.ndarray:
        # Python dict addressing by key bytes is outside the modeled
        # timing channel: the L1/L2 probes target the AES T-table lines,
        # not CPython's hash table.  The cipher cache trades that
        # (unmodeled) hash-timing surface for not re-expanding the key
        # schedule on every chunk.
        cipher = self._ciphers.get((session_id, key))
        if cipher is None:  # analysis: allow(consttime)
            cipher = AES(key)
            self._ciphers[session_id, key] = cipher  # analysis: allow(consttime)
        blocks_per_chunk = self.chunk_bytes // 16
        counter = b"\x00" * 12 + struct.pack(">I", index * blocks_per_chunk)
        chunk = ctr_keystream(cipher, counter, blocks_per_chunk).reshape(-1)
        self._chunks.put((session_id, key, index), chunk)
        return chunk

    def _chunk(self, session_id: int, key: bytes, index: int) -> np.ndarray:
        cache_key = (session_id, key, index)
        # A keycache.chunk drop fault scrubs the cached chunk before the
        # lookup, forcing deterministic regeneration.  Chunks are pure
        # functions of (key, index), so serving output is unchanged —
        # the fault exercises the eviction/regeneration path under load.
        if _faults.PLAN is not None and _faults.PLAN.keycache_chunk():
            self._chunks.discard(cache_key)
        cached = self._chunks.get(cache_key)
        # Hit/miss timing is the cache's documented design (chunks are
        # pure functions of key+index; a miss regenerates, never leaks
        # which key bytes differ) — dict hashing is unmodeled, see above.
        if cached is not None:  # analysis: allow(consttime)
            self._prefetched_unused.discard(cache_key)
            return cached
        return self._generate(session_id, key, index)

    def prefetch(self, session_id: int, key: bytes, position: int,
                 depth: int = 2) -> int:
        """Precompute the chunks covering ``position`` onward.

        Generates up to ``depth`` consecutive chunks starting at the one
        containing ``position``, skipping chunks already cached.  The
        serving dispatch loop calls this before a batch's inference runs
        so sealing the responses never waits on AES-CTR generation.
        Returns the number of chunks actually generated.
        """
        if position < 0:
            raise CryptoError("keystream position must be non-negative")
        if depth <= 0:
            return 0
        first = position // self.chunk_bytes
        generated = 0
        for index in range(first, first + depth):
            cache_key = (session_id, key, index)
            # Same unmodeled dict-hash surface as _generate above.
            if cache_key in self._chunks:  # analysis: allow(consttime)
                continue
            self._generate(session_id, key, index)
            self._prefetched_unused.add(cache_key)
            generated += 1
        self.prefetches += generated
        return generated

    def take(self, session_id: int, key: bytes, start: int,
             length: int) -> np.ndarray:
        """Keystream bytes ``[start, start + length)`` for one session."""
        if start < 0 or length < 0:
            raise CryptoError("keystream position must be non-negative")
        first = start // self.chunk_bytes
        last = (start + length - 1) // self.chunk_bytes if length else first
        parts = []
        for index in range(first, last + 1):
            chunk = self._chunk(session_id, key, index)
            lo = max(start - index * self.chunk_bytes, 0)
            hi = min(start + length - index * self.chunk_bytes,
                     self.chunk_bytes)
            if first == last:
                return chunk[lo:hi]
            # Fetching the next chunk may evict (and scrub, in place)
            # this one, so spans that cross chunks must copy out.
            parts.append(chunk[lo:hi].copy())
        return np.concatenate(parts)

    def forget_session(self, session_id: int) -> None:
        """Scrub and drop one session's chunks (every lane) and its
        AES key schedules."""
        self._chunks.discard_if(lambda k: k[0] == session_id)
        for cipher_key in [k for k in self._ciphers if k[0] == session_id]:
            del self._ciphers[cipher_key]
