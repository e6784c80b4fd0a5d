"""HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869) on the standard library.

These primitives back the OMG key-derivation step KDF(PK, n) -> K_U,
the deterministic random-bit generator in :mod:`repro.crypto.rng`, and
the fleet's license MACs.

The batch helpers precompute each key's two padded-block hash states
once (RFC 2104 §4) and finish every message from ``copy()``s of them,
so a key's pads are derived once per call instead of once per message.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.errors import KeyError_

__all__ = ["hmac_sha256", "hmac_sha256_many", "hmac_sha256_keyed",
           "hkdf_extract", "hkdf_expand", "hkdf", "constant_time_eq"]


_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = int.from_bytes(b"\x36" * _BLOCK, "big")
_OPAD = int.from_bytes(b"\x5c" * _BLOCK, "big")


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return HMAC-SHA256(key, message)."""
    return _hmac.digest(key, message, "sha256")


def _pad_states(key: bytes):
    """SHA-256 states after ``K xor ipad`` and ``K xor opad``.

    A key longer than one block is hashed first; a shorter one is
    zero-padded to the block.  The pads are XORed as whole integers.
    """
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    block = int.from_bytes(key, "big") << (8 * (_BLOCK - len(key)))
    return (hashlib.sha256((block ^ _IPAD).to_bytes(_BLOCK, "big")),
            hashlib.sha256((block ^ _OPAD).to_bytes(_BLOCK, "big")))


def hmac_sha256_many(key: bytes, messages) -> list[bytes]:
    """HMAC-SHA256 of each message under one ``key``, in input order."""
    inner, outer = _pad_states(key)
    tags = []
    for message in messages:
        state = inner.copy()
        state.update(message)
        tag = outer.copy()
        tag.update(state.digest())
        tags.append(tag.digest())
    return tags


def hmac_sha256_keyed(keys, messages) -> list[bytes]:
    """HMAC-SHA256 with a per-message key: ``keys[i]`` signs ``messages[i]``.

    Pad states are built once per distinct key *object*, grouped by
    ``id()`` so that no lookup is indexed by key bytes.
    """
    keys = list(keys)
    messages = list(messages)
    if len(keys) != len(messages):
        raise ValueError("hmac_sha256_keyed needs one key per message")
    distinct = {id(k): k for k in keys}
    states = {i: _pad_states(k) for i, k in distinct.items()}
    tags = []
    for k, message in zip(keys, messages):
        inner, outer = states[id(k)]
        state = inner.copy()
        state.update(message)
        tag = outer.copy()
        tag.update(state.digest())
        tags.append(tag.digest())
    return tags


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract: condense input keying material into a PRK."""
    if not salt:
        salt = b"\x00" * 32
    return hmac_sha256(salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: stretch a PRK into ``length`` output bytes."""
    if length <= 0:
        raise KeyError_("HKDF output length must be positive")
    if length > 255 * 32:
        raise KeyError_("HKDF output length exceeds 255 blocks")
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        okm += block
        counter += 1
    return okm[:length]


def hkdf(ikm: bytes, salt: bytes, info: bytes, length: int) -> bytes:
    """Full HKDF: extract-then-expand."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Compare two byte strings in time independent of where they differ."""
    return _hmac.compare_digest(a, b)
