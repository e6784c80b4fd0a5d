"""Batch SHA-256 / HMAC-SHA256 helpers: bit-exact against stdlib."""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto import hmac_sha256_keyed, hmac_sha256_many, sha256_many


def _sha(m: bytes) -> bytes:
    return hashlib.sha256(m).digest()


def _hmac(k: bytes, m: bytes) -> bytes:
    return stdlib_hmac.new(k, m, hashlib.sha256).digest()


def test_sha256_many_matches_scalar_across_lengths():
    # Every padded-block-count boundary around 55/56 and 119/120 bytes,
    # plus multi-block messages, in one mixed batch.
    messages = [bytes([i % 251]) * i for i in range(0, 200, 3)]
    messages += [b"", b"a", b"x" * 55, b"x" * 56, b"x" * 63, b"x" * 64,
                 b"x" * 119, b"x" * 120, b"y" * 1000]
    assert sha256_many(messages) == [_sha(m) for m in messages]


def test_sha256_many_preserves_input_order_in_mixed_groups():
    # Alternate 1-block and 2-block messages; results must land back at
    # their original indices.
    messages = [(b"s%d" % i) if i % 2 else (b"L%d" % i) * 30
                for i in range(64)]
    assert sha256_many(messages) == [_sha(m) for m in messages]


def test_hmac_many_matches_scalar_for_short_and_long_keys():
    messages = [b"device-%04d" % i for i in range(32)]
    for key in (b"k", b"secret-key" * 3, b"K" * 100):
        assert hmac_sha256_many(key, messages) == [
            _hmac(key, m) for m in messages]


def test_hmac_keyed_matches_scalar_with_mixed_keys():
    # Every message may use a different key (the mixed-cohort wave).
    keys = [b"cohort-%d" % (i % 5) * (1 + i % 3) for i in range(40)]
    messages = [b"dev-%04d|nonce" % i for i in range(40)]
    assert hmac_sha256_keyed(keys, messages) == [
        _hmac(k, m) for k, m in zip(keys, messages)]


def test_hmac_keyed_small_batch_and_long_keys():
    # Keys longer than one block are pre-hashed per RFC 2104.
    keys = [b"K" * 100, b"k", b"mid-key" * 4]
    messages = [b"a", b"b" * 200, b""]
    assert hmac_sha256_keyed(keys, messages) == [
        _hmac(k, m) for k, m in zip(keys, messages)]


def test_hmac_keyed_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        hmac_sha256_keyed([b"k1", b"k2"], [b"only-one"])


def test_empty_batch():
    assert sha256_many([]) == []
    assert hmac_sha256_many(b"k", []) == []
    assert hmac_sha256_keyed([], []) == []
