"""Golden output bytes of the SHA-256-based primitives.

Every expected value below is a fixed constant, so a change to the hash
implementation that alters a single output byte fails here, not only in
run-to-run determinism checks.  The DRBG stream feeds every enclave key
pair, the KDF yields K_U, and the batched MACs sign fleet licenses.
"""

from __future__ import annotations

import hashlib

from repro.crypto import hmac_sha256_keyed, sha256_many
from repro.crypto.kdf import derive_model_key
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg

_DRBG_96 = (
    "85d6deec8f4331e60662306e42ba1a35802c9c5ed2dc898e189b3a875ec1998c"
    "120f69e00f5c45198e83dc4dfc01ef6588c40a7cc4d13dbce902274329c29e6c"
    "c65d74430636f9179eb7f2f79eb7f424e7346ab05081fd608d2fd2ae54b8cf6a"
)
_MODULUS_SHA256 = (
    "870c62a7b6610b8547484773ee09fa5b21e412f6cf15d0a5711a6e0d7532114f")
_MODEL_KEY = "e811f054d0ac332d55637c499cd211df"
_KEYED_BATCH_SHA256 = (
    "9cb8365dc7bba35cfc11fcdfd207403902c8a769f55958486cbcdc5546711eb7")
_SHA_BATCH_SHA256 = (
    "383f56c96939d5a91ddc04ffa015976d3ccab08e4d6304b3f8f2262d3e5a282d")


def _batch():
    # 0..273-byte messages and 8..240-byte keys: empty, one-block,
    # multi-block, and keys longer than the 64-byte HMAC block.
    messages = [bytes([i % 251]) * (i * 7) for i in range(40)]
    keys = [b"cohort-%d" % (i % 5) * (1 + i % 30) for i in range(40)]
    return keys, messages


def test_drbg_stream_golden_across_two_calls():
    drbg = HmacDrbg(b"golden", b"p")
    stream = drbg.generate(48) + drbg.generate(48)
    assert stream.hex() == _DRBG_96


def test_deterministic_keypair_modulus_golden():
    n = deterministic_keypair(b"golden-ctx").n
    assert n.bit_length() == 1024
    digest = hashlib.sha256(n.to_bytes(128, "big")).hexdigest()
    assert digest == _MODULUS_SHA256


def test_derive_model_key_golden():
    pk = deterministic_keypair(b"golden-ctx").public_key
    key = derive_model_key(pk, b"golden-nonce-01", b"golden-vendor-secret")
    assert key.hex() == _MODEL_KEY


def test_hmac_sha256_keyed_batch_golden():
    keys, messages = _batch()
    tags = hmac_sha256_keyed(keys, messages)
    assert len(tags) == 40
    assert hashlib.sha256(b"".join(tags)).hexdigest() == _KEYED_BATCH_SHA256


def test_sha256_many_batch_golden():
    _, messages = _batch()
    digests = sha256_many(messages)
    assert len(digests) == 40
    assert hashlib.sha256(b"".join(digests)).hexdigest() == _SHA_BATCH_SHA256
