"""SHA-256 (FIPS 180-4) on the standard library's C implementation.

The attestation, key-derivation and fleet-licensing paths of the OMG
protocol all hash through this module.  :data:`SHA256` is
:func:`hashlib.sha256` itself, so the incremental surface
(``update``/``copy``/``digest``/``hexdigest``) is hashlib's.
"""

from __future__ import annotations

import hashlib

__all__ = ["SHA256", "sha256", "sha256_many"]

SHA256 = hashlib.sha256


def sha256(data: bytes) -> bytes:
    """One-shot convenience: return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_many(messages) -> list[bytes]:
    """SHA-256 of each message, in input order."""
    return [hashlib.sha256(m).digest() for m in messages]
