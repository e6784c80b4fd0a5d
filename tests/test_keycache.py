"""Session-secret caches: LRU bounds, scrub-on-evict, keystream equality.

The serving layer keeps per-session lane keys in a :class:`SecretCache`
and seals ring traffic with :class:`KeystreamCache` chunks.  Both caches
must bound memory without ever weakening the key-isolation story: an
evicted secret is zeroized in place, and an evicted keystream chunk
regenerates bit-identically from (key, position).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import keycache
from repro.crypto.aes import AES
from repro.crypto.keycache import (
    KeystreamCache,
    SecretCache,
    scrub_secret,
)
from repro.crypto.modes import ctr_keystream, ctr_keystream_xor
from repro.errors import CryptoError


def test_scrub_secret_zeroizes_mutable_buffers():
    buf = bytearray(b"\xffsecret\xff")
    scrub_secret(buf)
    assert buf == bytes(len(buf))

    arr = np.full(16, 0xAB, dtype=np.uint8)
    scrub_secret(arr)
    assert not arr.any()

    view = memoryview(bytearray(b"\x01\x02"))
    scrub_secret(view)
    assert view.tobytes() == b"\x00\x00"

    # Composite entries (e.g. a session's lane-key pair) scrub
    # element by element.
    pair = (bytearray(b"\xaa" * 16), bytearray(b"\xbb" * 16))
    scrub_secret(pair)
    assert pair[0] == bytes(16) and pair[1] == bytes(16)
    nested = [bytearray(b"\x01"), (bytearray(b"\x02"),)]
    scrub_secret(nested)
    assert nested[0] == b"\x00" and nested[1][0] == b"\x00"

    scrub_secret(b"immutable")  # ignored, must not raise


def test_secret_cache_rejects_nonpositive_capacity():
    with pytest.raises(CryptoError):
        SecretCache(0)
    with pytest.raises(CryptoError):
        SecretCache(-3)


def test_secret_cache_lru_eviction_scrubs_in_place():
    cache = SecretCache(2)
    first = bytearray(b"\xaa" * 16)
    second = bytearray(b"\xbb" * 16)
    cache.put("first", first)
    cache.put("second", second)
    # Touch "first" so "second" becomes the LRU victim.
    assert cache.get("first") is first
    cache.put("third", bytearray(b"\xcc" * 16))

    assert cache.evictions == 1
    assert "second" not in cache
    assert second == bytes(16)   # scrubbed in place on eviction
    assert first == b"\xaa" * 16  # survivors untouched


def test_secret_cache_counts_hits_and_misses():
    cache = SecretCache(4)
    assert cache.get("missing") is None
    assert cache.misses == 1
    assert cache.get("made") is None
    assert cache.misses == 2
    made = bytearray(b"\x01")
    cache.put("made", made)
    assert cache.get("made") is made
    assert cache.hits == 1


def test_secret_cache_discard_and_clear_scrub():
    cache = SecretCache(4)
    kept = bytearray(b"\x11" * 8)
    dropped = bytearray(b"\x22" * 8)
    cache.put("kept", kept)
    cache.put("dropped", dropped)
    cache.discard("dropped")
    assert dropped == bytes(8)
    cache.clear()
    assert kept == bytes(8)
    assert len(cache) == 0


def test_secret_cache_discard_if_scrubs_matches_only():
    cache = SecretCache(8)
    mine = bytearray(b"\x33" * 8)
    other = bytearray(b"\x44" * 8)
    cache.put((1, 0), mine)
    cache.put((2, 0), other)
    assert cache.discard_if(lambda k: k[0] == 1) == 1
    assert mine == bytes(8)
    assert other == b"\x44" * 8
    assert (2, 0) in cache


def _direct_keystream(key: bytes, start: int, length: int) -> bytes:
    """Reference keystream straight from AES-CTR, no cache involved."""
    base = (start // 16) * 16
    end = start + length
    padded = ctr_keystream_xor(
        AES(key), b"\x00" * 12 + (start // 16).to_bytes(4, "big"),
        b"\x00" * (((end - base + 15) // 16) * 16))
    return padded[start - base:start - base + length]


@pytest.mark.parametrize("start,length", [
    (0, 16),          # chunk-aligned
    (5, 40),          # unaligned inside one chunk
    (60, 16),         # straddles a chunk boundary (chunk_bytes=64)
    (120, 80),        # spans two whole boundaries
    (64, 0),          # empty span
])
def test_keystream_cache_matches_direct_ctr(start, length):
    key = bytes(range(16))
    cache = KeystreamCache(capacity=8, chunk_bytes=64)
    got = cache.take(7, key, start, length).tobytes()
    assert got == _direct_keystream(key, start, length)


_LANE_KEYS = {(sid, lane): bytes([sid * 2 + lane]) * 16
              for sid in (1, 2) for lane in (0, 1)}
_SPAN = st.tuples(st.sampled_from(sorted(_LANE_KEYS)),
                  st.integers(0, 3), st.integers(0, 1 << 30),
                  st.integers(0, 1 << 30))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chunk_bytes=st.sampled_from([64, 4096]),
       ops=st.lists(st.one_of(
           st.tuples(st.sampled_from(["take", "discard"]),
                     _SPAN),
           st.tuples(st.just("forget"), st.sampled_from([1, 2]))),
           max_size=14))
def test_keystream_cache_reads_match_direct_ctr(chunk_bytes, ops):
    """Random reads, chunk-crossing ones included,
    interleaved with dropped chunks (as a keycache.chunk fault drops
    them), capacity evictions and session closes: every byte read
    equals AES-CTR computed directly at its position, and the
    per-session index stays in step with the cached chunks."""
    cache = KeystreamCache(capacity=3, chunk_bytes=chunk_bytes)
    for kind, arg in ops:
        if kind == "forget":
            cache.forget_session(arg)
            continue
        (sid, lane), index, offset, size = arg
        key = _LANE_KEYS[sid, lane]
        start = index * chunk_bytes + offset % chunk_bytes
        length = size % (2 * chunk_bytes)
        if kind == "discard":
            cache._chunks.discard((sid, key, start // chunk_bytes))
            continue
        first, end = start // 16, -(-(start + length) // 16)
        direct = ctr_keystream(AES(key), b"\x00" * 12
                               + first.to_bytes(4, "big"), end - first)
        expected = direct.reshape(-1)[start % 16:start % 16 + length]
        assert cache.take(sid, key, start, length).tobytes() == (
            expected.tobytes())
    # The per-session index names each cached chunk exactly once.
    assert sorted(k for keys in cache._session_chunks.values()
                  for k in keys) == sorted(cache._chunks._entries)


def _record_runs(monkeypatch) -> list:
    """(first counter, blocks) of every CTR run the cache makes."""
    runs = []

    def recording(cipher, counter, n_blocks):
        runs.append((int.from_bytes(counter[12:], "big"), n_blocks))
        return ctr_keystream(cipher, counter, n_blocks)

    monkeypatch.setattr(keycache, "ctr_keystream", recording)
    return runs


def test_keystream_runs_reach_only_as_far_as_reads(monkeypatch):
    """On a 4096-byte chunk a 13-byte read runs 1 block, the next
    13-byte read 1 more, and a 2107-byte read fills the chunk: short
    runs go exactly as far as the read, a run past CTR_SCALAR_BLOCKS
    takes the rest of the chunk.  The three misses differ in cost;
    ``blocks`` counts the 256 blocks they ran."""
    runs = _record_runs(monkeypatch)
    key = bytes(range(16))
    cache = KeystreamCache(capacity=4, chunk_bytes=4096)
    for start, length in ((0, 13), (13, 13), (26, 2107)):
        assert (cache.take(1, key, start, length).tobytes()
                == _direct_keystream(key, start, length))
    assert runs == [(0, 1), (1, 1), (2, 254)]
    assert (cache.hits, cache.misses, cache.blocks) == (0, 3, 256)
    assert (cache.take(1, key, 2133, 1963).tobytes()
            == _direct_keystream(key, 2133, 1963))
    assert len(runs) == 3
    assert (cache.hits, cache.misses, cache.blocks) == (1, 3, 256)


def test_keystream_short_runs_double_the_held_prefix(monkeypatch):
    """Block-by-block reads run 1, 1, 2, 4 and 8 blocks, each at least
    doubling the held prefix, then fill the chunk; another session's
    reads follow the same rule from its own start, and a read within
    what is held runs nothing."""
    runs = _record_runs(monkeypatch)
    key = bytes(range(16))
    cache = KeystreamCache(capacity=4, chunk_bytes=4096)
    for block in range(20):
        assert (cache.take(1, key, block * 16, 16).tobytes()
                == _direct_keystream(key, block * 16, 16))
    assert runs == [(0, 1), (1, 1), (2, 2), (4, 4), (8, 8), (16, 240)]
    assert (cache.hits, cache.misses) == (14, 6)
    runs.clear()
    for start, length in ((0, 13), (13, 13), (0, 26)):
        assert (cache.take(2, key, start, length).tobytes()
                == _direct_keystream(key, start, length))
    assert runs == [(0, 1), (1, 1)]
    assert (cache.hits, cache.misses) == (15, 8)
    assert (cache.take(2, key, 13, 13).tobytes()
            == _direct_keystream(key, 13, 13))
    assert (cache.hits, cache.misses) == (16, 8)


def test_keystream_cache_regenerates_after_eviction():
    key = bytes(range(16, 32))
    cache = KeystreamCache(capacity=2, chunk_bytes=64)
    expected = cache.take(1, key, 0, 64).tobytes()
    # Two more chunks evict (and scrub) chunk 0.
    cache.take(1, key, 64, 64)
    cache.take(1, key, 128, 64)
    assert cache.evictions >= 1
    assert cache.take(1, key, 0, 64).tobytes() == expected


def test_keystream_cache_lanes_never_share_chunks():
    """Two keys under ONE session id (the request/response lane split)
    must yield independent keystreams.  Caching chunks by (session,
    index) alone would hand the second lane the first lane's pad — a
    two-time pad across the two directions."""
    request_key, response_key = bytes(range(16)), bytes(range(16, 32))
    cache = KeystreamCache(capacity=8, chunk_bytes=64)
    request_stream = cache.take(5, request_key, 0, 48).tobytes()
    response_stream = cache.take(5, response_key, 0, 48).tobytes()
    assert request_stream != response_stream
    assert request_stream == _direct_keystream(request_key, 0, 48)
    assert response_stream == _direct_keystream(response_key, 0, 48)


def test_keystream_cache_forget_session_drops_both_lanes_and_ciphers():
    request_key, response_key = bytes(range(16)), bytes(range(16, 32))
    cache = KeystreamCache(capacity=8, chunk_bytes=64)
    cache.take(1, request_key, 0, 64)
    cache.take(1, response_key, 0, 64)
    cache.take(2, request_key, 0, 64)
    cache.forget_session(1)
    # No chunk and no AES key schedule of session 1 survives; session
    # 2's entries are untouched.
    assert all(k[0] != 1 for k in cache._chunks._entries)
    assert all(k[0] != 1 for k in cache._ciphers)
    assert any(k[0] == 2 for k in cache._ciphers)


def test_keystream_cache_forget_session_scrubs_exactly_that_session():
    """Closing one of several sessions scrubs exactly its chunks and
    key schedules; the others' bytes stay cached and readable, and a
    later take of the closed session regenerates identical keystream."""
    cache = KeystreamCache(capacity=16, chunk_bytes=64)
    lanes = {sid: (bytes([sid]) * 16, bytes([sid + 100]) * 16)
             for sid in (1, 2, 3)}
    streams = {(sid, key): cache.take(sid, key, 0, 80).tobytes()
               for sid, keys in lanes.items() for key in keys}
    chunks = dict(cache._chunks._entries)
    assert len(chunks) == 12
    cache.forget_session(2)
    for cache_key, chunk in chunks.items():
        assert (cache_key in cache._chunks) == (cache_key[0] != 2)
        assert chunk.any() == (cache_key[0] != 2)
    assert {k[0] for k in cache._ciphers} == {1, 3}
    assert 2 not in cache._session_chunks
    misses = cache.misses
    for (sid, key), stream in streams.items():
        assert cache.take(sid, key, 0, 80).tobytes() == stream
        assert stream == _direct_keystream(key, 0, 80)
    # Only the closed session's two lanes, two chunks each, regenerate.
    assert cache.misses == misses + 4


def test_keystream_cache_session_index_follows_lru_eviction():
    """The per-session index holds exactly the cached chunks, also
    after capacity evictions, and a close scrubs what is left."""
    cache = KeystreamCache(capacity=3, chunk_bytes=64)
    key_a, key_b = bytes(range(16)), bytes(range(16, 32))
    cache.take(1, key_a, 0, 192)
    cache.take(2, key_b, 0, 128)
    cache.take(1, key_b, 0, 128)
    assert cache.evictions == 4
    assert (set().union(*cache._session_chunks.values())
            == set(cache._chunks._entries))
    cache.forget_session(1)
    assert all(k[0] == 2 for k in cache._chunks._entries)
    assert set(cache._session_chunks) == {2}
    assert set(cache._ciphers) == {(2, key_b)}


def test_keystream_cache_sessions_are_independent():
    key_a, key_b = bytes(16), bytes(range(16))
    cache = KeystreamCache(capacity=8, chunk_bytes=64)
    stream_a = cache.take(1, key_a, 0, 32).tobytes()
    stream_b = cache.take(2, key_b, 0, 32).tobytes()
    assert stream_a != stream_b
    cache.forget_session(1)
    # Session 2 is untouched; session 1 regenerates identically.
    assert cache.take(2, key_b, 0, 32).tobytes() == stream_b
    assert cache.take(1, key_a, 0, 32).tobytes() == stream_a


def test_keystream_cache_validates_parameters():
    with pytest.raises(CryptoError):
        KeystreamCache(chunk_bytes=0)
    with pytest.raises(CryptoError):
        KeystreamCache(chunk_bytes=24)  # not a multiple of 16
    cache = KeystreamCache(chunk_bytes=64)
    with pytest.raises(CryptoError):
        cache.take(1, bytes(16), -1, 16)
    with pytest.raises(CryptoError):
        cache.take(1, bytes(16), 0, -1)


@pytest.mark.parametrize("position", [0, 1, 127, 128, 300, 2**32 - 1,
                                      2**64 + 5000])
def test_keystream_block_is_the_ctr_block_at_its_position(position):
    """block() returns the keystream block at position int(counter):
    E_k(counter), the CTR block take() would return there below 2**32
    blocks, and read from the chunk the position falls in."""
    key = bytes(range(16))
    cipher = AES(key)
    counter = position.to_bytes(16, "big")
    cache = KeystreamCache(capacity=4, chunk_bytes=2048)
    got = cache.block(3, cipher, counter)
    assert got == ctr_keystream(cipher, counter, 1).tobytes()
    assert got == cipher.encrypt_block(counter)
    if position < 2**32:
        pads = KeystreamCache(capacity=4, chunk_bytes=2048)
        assert got == pads.take(3, key, 16 * position, 16).tobytes()
    assert cache.block(3, cipher, counter) == got
    assert (cache.hits, cache.misses) == (1, 1)
    cache.forget_session(3)
    assert not cache._chunks._entries and not cache._session_chunks


def test_keystream_block_reads_pass_no_fault_check():
    """Mask reads add no keycache.chunk operation, so a serve fault
    plan's op counts stay those of the pad reads: the first drop rule
    fires on the first take, not on any block read before it."""
    from repro import faults

    key = bytes(range(16))
    cipher = AES(key)
    cache = KeystreamCache(capacity=4, chunk_bytes=2048)
    with faults.installed(faults.FaultPlan(
            1, [faults.drop_nth_keystream_chunk(1)])) as plan:
        for position in range(1, 40):
            assert (cache.block(1, cipher, position.to_bytes(16, "big"))
                    == cipher.encrypt_block(position.to_bytes(16, "big")))
        assert plan.fired("keycache.chunk") == 0
        cache.take(1, key, 0, 16)
        assert plan.fired("keycache.chunk") == 1


@pytest.mark.analysis
def test_keycache_and_serve_pass_zeroization_rules():
    """The caches and the serving layer stay analysis-clean: no secret
    leaks, no unscrubbed acquisitions, no wall-clock reads."""
    import os

    import repro
    from repro.analysis import run_analysis

    root = os.path.dirname(repro.__file__)
    targets = [os.path.join(root, "crypto", "keycache.py"),
               os.path.join(root, "serve")]
    result = run_analysis(targets)
    assert result.findings == [], [f.message for f in result.findings]
