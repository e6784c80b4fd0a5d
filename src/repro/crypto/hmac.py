"""HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869) on the standard library.

These primitives back the OMG key-derivation step KDF(PK, n) -> K_U,
the deterministic random-bit generator in :mod:`repro.crypto.rng`, and
the fleet's license MACs.
"""

from __future__ import annotations

import hmac as _hmac

from repro.errors import KeyError_

__all__ = ["hmac_sha256", "hmac_sha256_many", "hmac_sha256_keyed",
           "hkdf_extract", "hkdf_expand", "hkdf", "constant_time_eq"]


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Return HMAC-SHA256(key, message)."""
    return _hmac.digest(key, message, "sha256")


def hmac_sha256_many(key: bytes, messages) -> list[bytes]:
    """HMAC-SHA256 of each message under one ``key``, in input order."""
    return [_hmac.digest(key, m, "sha256") for m in messages]


def hmac_sha256_keyed(keys, messages) -> list[bytes]:
    """HMAC-SHA256 with a per-message key: ``keys[i]`` signs ``messages[i]``."""
    keys = list(keys)
    messages = list(messages)
    if len(keys) != len(messages):
        raise ValueError("hmac_sha256_keyed needs one key per message")
    return [_hmac.digest(k, m, "sha256") for k, m in zip(keys, messages)]


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
