"""Key-material caches: deterministic RSA pairs, session secrets, keystreams.

Every key in the simulation is derived deterministically from a context
string, so identical contexts always yield identical keys.  Caching the
prime generation (tens of milliseconds per 1024-bit pair) per context
makes repeated platform construction — every test builds platforms —
cheap after the first time.

The serving path (``repro.serve``) adds two more caches:

* :class:`~repro.crypto.custody.SecretCache` (re-exported here) — a
  bounded LRU for per-session secrets (open license grants, session
  keys, frame-tag mask chunks).  Eviction *scrubs* the stored material
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
from functools import lru_cache

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.custody import SecretCache, scrub_secret
from repro.crypto.modes import ctr_keystream
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.errors import CryptoError
from repro.faults import hooks as _faults

__all__ = ["deterministic_keypair", "scrub_secret", "SecretCache",
           "KeystreamCache"]


@lru_cache(maxsize=256)
def deterministic_keypair(context: bytes, bits: int = 1024) -> RsaPrivateKey:
    """RSA key pair derived (and memoized) from ``context``."""
    return generate_keypair(bits, HmacDrbg(context, b"keycache"))


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
        # session_id -> the keys of its entries in _chunks (kept in step
        # by _generate and _chunk_evicted) and in _ciphers, so closing a
        # session walks only its own entries.
        self._session_chunks: dict[int, set] = {}
        self._session_ciphers: dict[int, list] = {}
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
        chunks = self._session_chunks.get(cache_key[0])
        if chunks is not None:
            chunks.discard(cache_key)
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
            self._session_ciphers.setdefault(session_id, []).append(
                (session_id, key))
        blocks_per_chunk = self.chunk_bytes // 16
        counter = b"\x00" * 12 + struct.pack(">I", index * blocks_per_chunk)
        chunk = ctr_keystream(cipher, counter, blocks_per_chunk).reshape(-1)
        cache_key = (session_id, key, index)
        self._chunks.put(cache_key, chunk)
        self._session_chunks.setdefault(session_id, set()).add(cache_key)
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
        AES key schedules, touching no other session's entries."""
        for cache_key in self._session_chunks.pop(session_id, ()):
            self._chunks.discard(cache_key)
        for cipher_key in self._session_ciphers.pop(session_id, ()):
            del self._ciphers[cipher_key]
