"""Golden output bytes of the SHA-256-based and serving-path primitives.

Every expected value below is a fixed constant, so a change to the hash
implementation that alters a single output byte fails here, not only in
run-to-run determinism checks.  The DRBG stream feeds every enclave key
pair, the KDF yields K_U, and the batched MACs sign fleet licenses.
The modulus and K_U pins also fix the key derivation itself: prime
candidates with their top two bits set, the gcd sieve and the
Miller-Rabin rounds each decide which primes a context yields.
The frame tags, keystream chunks and batched AES are the serving
frame path's kernels, and GCM seals the provisioned model; their pins
hold across kernel rewrites.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.crypto import hmac_sha256_keyed, sha256_many
from repro.crypto.aes import AES
from repro.crypto.kdf import derive_model_key
from repro.crypto.keycache import KeystreamCache, deterministic_keypair
from repro.crypto.modes import (GCM, FrameTagKey, frame_tags_batched,
                                gcm_decrypt, gcm_encrypt)
from repro.crypto.rng import HmacDrbg
from repro.serve.frames import frame_aad, frame_j0, frame_tags

_DRBG_96 = (
    "85d6deec8f4331e60662306e42ba1a35802c9c5ed2dc898e189b3a875ec1998c"
    "120f69e00f5c45198e83dc4dfc01ef6588c40a7cc4d13dbce902274329c29e6c"
    "c65d74430636f9179eb7f2f79eb7f424e7346ab05081fd608d2fd2ae54b8cf6a"
)
_MODULUS_SHA256 = (
    "e78374e820ada9379a0aff65505c9a9981daa85032a966cbb96473eae16d191d")
_MODEL_KEY = "2e510ac22bba8df69100791bff9d9f27"
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



# --- serving frame-path kernels ---------------------------------------------
#
# Frame tags, keystream chunks and batched AES seal every serving frame.
# Inputs come from a SHA-256 counter stream, not from an RNG whose
# output could change between library versions.

# (ciphertext bytes, distinct keys) -> SHA-256 of 50 concatenated tags.
# 2107 bytes is a request frame (fingerprint), 13 bytes a response frame.
_FRAME_TAGS_SHA256 = {
    (2107, 1):
        "f4d5741346ac9d6ed88c0eb788dd92611f086e8072893a6e306945bd74555e18",
    (2107, 3):
        "536e8a8b5c9d67d5bc467169d99d7c14cb96ee6067b0013c37086df08f6f4b64",
    (13, 1):
        "0267a57ab097c27f91f41f558e00b5f9656bab3055ea08d9ed53d5b51b513bd5",
    (13, 3):
        "98a2d29c58557e462bcc680a4acf88942ef8a8a17ff48323821dcd634c4f0793",
}
_KEYSTREAM_CHUNK_SHA256 = (
    "9cdb88fd05ac186eb1371defadda93d848fd41bd1633102d8404a64e176a9acc")
# key bytes -> SHA-256 of encrypt_blocks || decrypt_blocks over 4096 blocks.
_AES_BLOCKS_SHA256 = {
    16: "69282762180c18c4d26538680e807bd4c68a15a94948110be4a522b7b47e281d",
    32: "c76cc66729c40d5ff9368d9ada430b6d1e61c4213e11e6824f18733c49f32ba1",
}
# key bytes -> SHA-256 of one gcm_encrypt blob (nonce || ct || tag) of a
# 54,296-byte message, the standard model's size: the batched GHASH
# path, with a 60-byte nonce so J0 is itself a GHASH.
_GCM_MODEL_SHA256 = {
    16: "e0417147f7e3fd2540fe8214c5bedda28cea5da78217991294e153a28537ab9b",
    32: "611e80edc9c726668fab80eca1d93ba7110166979f812b985d20dc5e02375610",
}


def _stream(label: bytes, n: int) -> bytes:
    out = b"".join(hashlib.sha256(label + counter.to_bytes(4, "big")).digest()
                   for counter in range((n + 31) // 32))
    return out[:n]


@pytest.mark.parametrize("size,n_keys", sorted(_FRAME_TAGS_SHA256))
def test_frame_tags_golden(size, n_keys):
    # 50 frames at sequences 0-49, below the first E_k(J0) mask chunk.
    owners = [FrameTagKey(_stream(b"tag-key-%d" % i, 16)) for i in range(3)]
    keys = [owners[seq % n_keys] for seq in range(50)]
    j0s = [frame_j0(seq) for seq in range(50)]
    aads = [frame_aad(seq % 5, seq) for seq in range(50)]
    cts = [_stream(b"frame-%d-%d" % (size, seq), size) for seq in range(50)]
    scalar = [key.tag(j0, aad, ct)
              for key, j0, aad, ct in zip(keys, j0s, aads, cts)]
    assert frame_tags_batched(keys, j0s, aads, cts) == scalar
    digest = hashlib.sha256(b"".join(scalar)).hexdigest()
    assert digest == _FRAME_TAGS_SHA256[size, n_keys]


# Sequence numbers on both sides of every E_k(J0) mask-chunk boundary
# the frame tagger could choose (64, 128, 256 blocks), far past it, and
# the last counter inc32 reaches.
_LATE_SEQS = (63, 64, 127, 128, 255, 256, 511, 512, 5000, 2**32 - 1)
# (ciphertext bytes, distinct keys) -> SHA-256 of the tags of the
# _LATE_SEQS frames.
_LATE_FRAME_TAGS_SHA256 = {
    (2107, 1): (
        "7c6845e9bca1d35654e6332ff50b9149e33b84843931c526b74d30dfc6d29a88"),
    (2107, 3): (
        "91ba1cd907488ad02977564e650c29e78b8adb4accf1c5204249c257b7f7c3b7"),
    (13, 1): (
        "ac562c22e4286a9f08ed8529a6f376ed7417e8b27dfe6b26ab8b235653411b97"),
    (13, 3): (
        "36639c5bc2fb7a3855bc09c607c277279a1cdd4a188ceb42e8c5247b5427633c"),
}


@pytest.mark.parametrize("size,n_keys", sorted(_LATE_FRAME_TAGS_SHA256))
def test_late_sequence_frame_tags_golden(size, n_keys):
    # The serving path's own entry point, per frame and as one group,
    # plus the batched sweep directly (frame_tags keeps a group of ten
    # 13-byte frames scalar).
    owners = [FrameTagKey(_stream(b"late-tag-key-%d" % i, 16))
              for i in range(3)]
    keys = [owners[i % n_keys] for i in range(len(_LATE_SEQS))]
    sessions = [i % 5 for i in range(len(_LATE_SEQS))]
    cts = [_stream(b"late-frame-%d-%d" % (size, seq), size)
           for seq in _LATE_SEQS]
    scalar = [key.tag(frame_j0(seq), frame_aad(sid, seq), ct)
              for key, sid, seq, ct in zip(keys, sessions, _LATE_SEQS, cts)]
    assert frame_tags(keys, sessions, _LATE_SEQS, cts) == scalar
    assert [frame_tags([key], [sid], [seq], [ct])[0]
            for key, sid, seq, ct
            in zip(keys, sessions, _LATE_SEQS, cts)] == scalar
    assert frame_tags_batched(
        keys, [frame_j0(seq) for seq in _LATE_SEQS],
        [frame_aad(sid, seq) for sid, seq in zip(sessions, _LATE_SEQS)],
        cts) == scalar
    digest = hashlib.sha256(b"".join(scalar)).hexdigest()
    assert digest == _LATE_FRAME_TAGS_SHA256[size, n_keys]


def test_keystream_chunk_golden():
    chunk = KeystreamCache(capacity=2).take(
        7, _stream(b"seal-key", 16), 65536, 65536)
    assert chunk.shape == (65536,)
    digest = hashlib.sha256(chunk.tobytes()).hexdigest()
    assert digest == _KEYSTREAM_CHUNK_SHA256


@pytest.mark.parametrize("key_size", sorted(_AES_BLOCKS_SHA256))
def test_aes_blocks_golden(key_size):
    cipher = AES(_stream(b"aes-key", key_size))
    blocks = np.frombuffer(_stream(b"aes-blocks", 4096 * 16),
                           dtype=np.uint8).reshape(4096, 16)
    encrypted = cipher.encrypt_blocks(blocks)
    decrypted = cipher.decrypt_blocks(blocks)
    assert np.array_equal(cipher.decrypt_blocks(encrypted), blocks)
    digest = hashlib.sha256(encrypted.tobytes() + decrypted.tobytes())
    assert digest.hexdigest() == _AES_BLOCKS_SHA256[key_size]


@pytest.mark.parametrize("key_size", sorted(_GCM_MODEL_SHA256))
def test_gcm_model_blob_golden(key_size):
    key = _stream(b"gcm-key", key_size)
    nonce = _stream(b"gcm-nonce", 60)
    aad = _stream(b"gcm-aad", 37)
    plaintext = _stream(b"gcm-model", 54296)
    blob = gcm_encrypt(key, nonce, plaintext, aad)
    ciphertext, tag = GCM(key, reference=True).encrypt(nonce, plaintext, aad)
    assert nonce + ciphertext + tag == blob
    assert gcm_decrypt(key, blob, aad, nonce_size=60) == plaintext
    assert hashlib.sha256(blob).hexdigest() == _GCM_MODEL_SHA256[key_size]
