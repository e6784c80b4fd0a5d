"""Key-material caches: deterministic RSA pairs, session secrets, keystreams.

Every key in the simulation is derived deterministically from a context
string, so identical contexts always yield identical keys.  Caching the
prime generation per context (a median of about 45 ms per 768-bit pair
and 110 ms per 1024-bit pair over 24 contexts on a 2-vCPU x86 VM)
makes repeated platform construction — every test builds platforms —
cheap after the first time.

The serving path (``repro.serve``) adds two more caches:

* :class:`~repro.crypto.custody.SecretCache` (re-exported here) — a
  bounded LRU for per-session secrets (open license grants, session
  keys, keystream chunks).  Eviction *scrubs* the stored material in
  place before dropping the reference, so a capacity-limited cache
  never leaves stale key bytes lying around in host memory longer than
  its own bookkeeping.
* :class:`KeystreamCache` — per-session AES-CTR keystream chunks, the
  one keystream engine of serving: the sealing pads of the zero-copy
  rings, and the frame-tag masks E_k(J0), which are CTR blocks under
  a lane's tag key.  Per-request GCM would pay a fresh CTR run and
  GHASH setup for every frame; keystream generated only as far as the
  reads reach, in runs that grow to fill a whole chunk (64 KB by
  default), and XORed in place costs far less per request.  Chunks
  regenerate deterministically from (session key, position) after
  eviction, so bounding the cache never loses data.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.custody import SecretCache, scrub_secret
from repro.crypto.modes import CTR_SCALAR_BLOCKS, ctr_keystream
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
    """Per-session AES-CTR keystream chunks, read on demand.

    Chunk ``i`` of a lane is the CTR keystream for counter blocks
    ``[i * blocks_per_chunk, (i + 1) * blocks_per_chunk)`` under that
    lane's key, each counter block being its position as a 128-bit
    big-endian integer (below 2**32 blocks: an all-zero 12-byte prefix
    and a 32-bit counter).  Positions map to chunks deterministically,
    so an evicted chunk is simply regenerated — the cache bounds
    memory, never correctness.

    A cached chunk is the prefix of its keystream that reads have
    reached so far.  A read past that prefix runs CTR from its end
    (:meth:`_extend`): a run of up to ``CTR_SCALAR_BLOCKS`` blocks
    exactly, at least doubling the prefix, and a longer one fills the
    rest of the chunk, since above that size one batched run costs
    about the same up to a whole chunk.  The longer prefix replaces the
    cached one, which the cache scrubs, so a view :meth:`take` returned
    is only good until the next call.

    A lane is a key (:meth:`take`: the sealing pads, whose AES key
    schedule the cache expands and holds until :meth:`forget_session`)
    or an :class:`AES` cipher its owner already holds (:meth:`block`:
    a frame tagger's masks, so a tag key keeps one key schedule).
    Chunks are cached under ``(session_id, lane, index)``: the lane is
    part of a chunk's identity, so one session's request and response
    lanes (same session id, different derived keys) can never alias
    each other's keystream bytes — reusing one lane's chunk for the
    other would seal two plaintexts under the same pad, the classic
    two-time-pad leak.  XOR-at-position is then safe because within a
    lane each keystream byte covers exactly one message byte (the
    serving layer gives every lane a strictly advancing position).

    ``hits`` counts chunk reads served wholly from held keystream,
    ``misses`` the chunk reads that ran CTR, and ``blocks`` the
    keystream blocks those runs generated: a one-block run and a whole
    chunk are each one miss, so only ``blocks`` tracks the CTR cost.
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
        # by _extend and _chunk_evicted) and in _ciphers, so closing a
        # session walks only its own entries.
        self._session_chunks: dict[int, list] = {}
        self._session_ciphers: dict[int, list] = {}
        self.hits = 0
        self.misses = 0
        self.blocks = 0

    @property
    def evictions(self) -> int:
        return self._chunks.evictions

    def _chunk_evicted(self, cache_key) -> None:
        chunks = self._session_chunks.get(cache_key[0])
        if chunks is not None:
            chunks.remove(cache_key)

    def _cipher(self, session_id: int, key: bytes) -> AES:
        # Python dict addressing by key bytes is outside the modeled
        # timing channel: the L1/L2 probes target the AES T-table lines,
        # not CPython's hash table.  The cipher cache trades that
        # (unmodeled) hash-timing surface for not re-expanding the key
        # schedule on every run.
        cipher = self._ciphers.get((session_id, key))
        if cipher is None:  # analysis: allow(consttime)
            cipher = AES(key)
            self._ciphers[session_id, key] = cipher  # analysis: allow(consttime)
            self._session_ciphers.setdefault(session_id, []).append(
                (session_id, key))
        return cipher

    def _extend(self, session_id: int, key, index: int,
                end: int) -> np.ndarray:
        """Chunk ``index`` of lane ``key`` (key bytes or a cipher),
        held through its byte ``end``; counts the read."""
        cache_key = (session_id, key, index)
        chunk = self._chunks.get(cache_key)
        # Whether a chunk is cached, and how much of it, follows from
        # public read positions and the LRU order; dict hashing is
        # unmodeled (see _cipher).
        held = 0 if chunk is None else len(chunk)  # analysis: allow(consttime)
        need = -(-end // 16)
        if need <= held:
            self.hits += 1
            return chunk
        total = self.chunk_bytes // 16
        run, rest = max(need - held, held), total - held
        run = rest if run > CTR_SCALAR_BLOCKS else min(run, rest)
        cipher = (key if isinstance(key, AES)
                  else self._cipher(session_id, key))
        stream = ctr_keystream(cipher, (index * total + held).to_bytes(
            16, "big"), run)
        self.blocks += run
        self.misses += 1
        if held:
            # The cache scrubs the shorter prefix this one replaces.
            extended = np.concatenate((chunk, stream))
            scrub_secret(stream)
            stream = extended
        else:
            self._session_chunks.setdefault(session_id, []).append(cache_key)
        self._chunks.put(cache_key, stream)
        return stream

    def block(self, session_id: int, cipher: AES, counter: bytes) -> bytes:
        """The keystream block at position ``int(counter)`` of the lane
        ``cipher`` keys: ``E_k(counter)``, as long as no chunk crosses
        an inc32 wrap (``chunk_bytes // 16`` divides 2**32).

        A frame tagger reads its masks E_k(J0) here, so a lane's
        consecutive masks come out of one chunk.  Unlike :meth:`take`,
        a block read passes no ``keycache.chunk`` fault check: the
        fault sites' op counts stay those of the sealing pads.
        """
        index, row = divmod(int.from_bytes(counter, "big"),
                            self.chunk_bytes // 16)
        return self._extend(session_id, cipher, index, 16 * row + 16)[
            row].tobytes()

    def _spans(self, start: int, length: int):
        """``(index, lo, hi)`` per chunk a read of ``[start, start +
        length)`` touches, ``lo:hi`` its bytes within that chunk."""
        size = self.chunk_bytes
        stop = -(-(start + length) // size) if length else 0
        for index in range(start // size, stop):
            yield (index, max(start - index * size, 0),
                   min(start + length - index * size, size))

    def take(self, session_id: int, key: bytes, start: int,
             length: int) -> np.ndarray:
        """Keystream bytes ``[start, start + length)`` for one session."""
        if start < 0 or length < 0:
            raise CryptoError("keystream position must be non-negative")
        if not length:
            return np.empty(0, dtype=np.uint8)
        spans = list(self._spans(start, length))
        parts = []
        for index, lo, hi in spans:
            # A keycache.chunk drop fault scrubs the cached chunk before
            # the lookup, forcing deterministic regeneration.  Chunks
            # are pure functions of (key, index), so serving output is
            # unchanged — the fault exercises the eviction/regeneration
            # path under load.
            if _faults.PLAN is not None and _faults.PLAN.keycache_chunk():
                self._chunks.discard((session_id, key, index))
            chunk = self._extend(session_id, key, index, hi).reshape(-1)
            if len(spans) == 1:
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
