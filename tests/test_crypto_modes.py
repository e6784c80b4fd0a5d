"""AES-CTR and AES-GCM: NIST vectors, tamper detection, properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import GCM, ctr_keystream_xor, gcm_decrypt, gcm_encrypt
from repro.errors import AuthenticationError, KeyError_

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PT4 = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39")
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


def test_gcm_nist_case_2_empty_aad():
    gcm = GCM(b"\x00" * 16)
    ct, tag = gcm.encrypt(b"\x00" * 12, b"\x00" * 16)
    assert ct.hex() == "0388dace60b6a392f328c2b971b2fe78"
    assert tag.hex() == "ab6e47d42cec13bdf53a67b21257bddf"


def test_gcm_nist_case_4_with_aad():
    ct, tag = GCM(KEY).encrypt(IV, PT4, AAD)
    assert ct.hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091")
    assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"


@pytest.mark.parametrize("key", [b"\x00" * 16, KEY, bytes(range(32))],
                         ids=["zero", "nist", "aes256"])
def test_ghash_table_matches_field_multiplication(key):
    """The scalar kernel and the reference block step read one product
    table, ``table[b] == (b << 120) * H``, checked entry by entry
    against the bitwise reference multiply."""
    gcm = GCM(key)
    assert gcm._table == [GCM._gf_mul(b << 120, gcm._h) for b in range(256)]


def test_ghash_scalar_matches_reference_block_chain():
    """The scalar kernel's one-reduction Horner sweep equals a chain of
    reference ``_ghash_block`` calls from any starting state, over 0-64
    blocks; all-0xFF blocks give the unreduced product its widest
    overflow."""
    import random

    rng = random.Random(34)
    keys = [b"\x00" * 16, KEY, bytes(range(32)), b"\xff" * 16] + [
        rng.randbytes(16) for _ in range(4)]
    ones = (1 << 128) - 1
    for key in keys:
        gcm = GCM(key)
        for n_blocks in (0, 1, 2, 3, 17, 64):
            for fill in (b"\x00", b"\xff", None):
                data = (rng.randbytes(16 * n_blocks) if fill is None
                        else fill * (16 * n_blocks))
                for state in (0, ones, rng.getrandbits(128)):
                    expected = state
                    for offset in range(0, len(data), 16):
                        expected = gcm._ghash_block(
                            expected, data[offset:offset + 16])
                    assert gcm._ghash_scalar(state, data) == expected


def test_frame_tag_key_scalar_table_fits_in_16_kib():
    """One tagger's scalar table, built by its first tag of a
    2107-byte frame, allocates at most 16 KiB (the same products kept
    in four shifted copies took about 57 KB, and the sixteen byte
    tables before them about 215 KB)."""
    import tracemalloc

    from repro.crypto.modes import FrameTagKey

    key = FrameTagKey(bytes(range(16)))
    j0 = bytes(12) + (1).to_bytes(4, "big")
    ciphertext = bytes(range(256)) * 8 + bytes(59)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        key.tag(j0, b"", ciphertext)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert "_table" in vars(key)
    assert retained <= 16 * 1024


def test_frame_tag_key_scrub_drops_h_tables():
    """scrub() drops the scalar table and both gather planes; a later
    tag rebuilds them and gives the same bytes."""
    from repro.crypto.modes import FrameTagKey, frame_tags_batched

    key = FrameTagKey(bytes(range(16)))
    j0s = [bytes(12) + seq.to_bytes(4, "big") for seq in (1, 2)]
    ciphertexts = [bytes(range(256)) * 8 + bytes(59), bytes(300)]
    names = {"_table", "_planes", "_fold_planes"}
    tags = frame_tags_batched([key, key], j0s, [b"", b""], ciphertexts)
    assert key.tag(j0s[0], b"", ciphertexts[0]) == tags[0]
    assert names <= vars(key).keys()
    key.scrub()
    assert not names & vars(key).keys()
    assert key.tag(j0s[1], b"", ciphertexts[1]) == tags[1]


def test_gcm_roundtrip_with_aad():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, PT4, AAD)
    assert gcm.decrypt(IV, ct, tag, AAD) == PT4


def test_gcm_detects_ciphertext_tamper():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, PT4, AAD)
    tampered = bytes([ct[0] ^ 1]) + ct[1:]
    with pytest.raises(AuthenticationError):
        gcm.decrypt(IV, tampered, tag, AAD)


def test_gcm_detects_tag_tamper():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, PT4)
    bad_tag = bytes([tag[0] ^ 0x80]) + tag[1:]
    with pytest.raises(AuthenticationError):
        gcm.decrypt(IV, ct, bad_tag)


def test_gcm_detects_aad_mismatch():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, PT4, AAD)
    with pytest.raises(AuthenticationError):
        gcm.decrypt(IV, ct, tag, AAD + b"x")


def test_gcm_wrong_key_fails():
    ct, tag = GCM(KEY).encrypt(IV, PT4)
    with pytest.raises(AuthenticationError):
        GCM(b"\x01" * 16).decrypt(IV, ct, tag)


def test_gcm_wrong_nonce_fails():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, PT4)
    with pytest.raises(AuthenticationError):
        gcm.decrypt(b"\x00" * 12, ct, tag)


def test_gcm_empty_plaintext():
    gcm = GCM(KEY)
    ct, tag = gcm.encrypt(IV, b"")
    assert ct == b""
    assert gcm.decrypt(IV, ct, tag) == b""


def test_gcm_non_96bit_nonce():
    gcm = GCM(KEY)
    long_nonce = bytes(range(20))
    ct, tag = gcm.encrypt(long_nonce, PT4)
    assert gcm.decrypt(long_nonce, ct, tag) == PT4


def test_gcm_rejects_empty_nonce():
    # An empty nonce makes J0 = 0^128, so the tag mask E_k(J0) would be
    # the GHASH key H: decryption must refuse it as encryption does.
    ciphertext, tag = GCM(KEY).encrypt(IV, b"data")
    with pytest.raises(KeyError_):
        GCM(KEY).encrypt(b"", b"data")
    with pytest.raises(KeyError_):
        GCM(KEY).decrypt(b"", ciphertext, tag)
    with pytest.raises(KeyError_):
        gcm_decrypt(KEY, ciphertext + tag, nonce_size=0)


def test_one_shot_helpers_roundtrip():
    blob = gcm_encrypt(KEY, IV, PT4, AAD)
    assert blob.startswith(IV)
    assert gcm_decrypt(KEY, blob, AAD) == PT4


def test_one_shot_decrypt_rejects_short_blob():
    with pytest.raises(AuthenticationError):
        gcm_decrypt(KEY, b"tooshort")


def test_ctr_keystream_is_xor_involution():
    cipher = AES(KEY)
    counter = b"\x00" * 15 + b"\x01"
    data = bytes(range(100))
    once = ctr_keystream_xor(cipher, counter, data)
    assert once != data
    assert ctr_keystream_xor(cipher, counter, once) == data


def test_ctr_counter_must_be_16_bytes():
    with pytest.raises(KeyError_):
        ctr_keystream_xor(AES(KEY), b"\x00" * 8, b"data")


def test_ctr_sp800_38a_vector():
    # SP 800-38A F.5.1 CTR-AES128 block 1.
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    assert ctr_keystream_xor(cipher, counter, pt).hex() == \
        "874d6191b620e3261bef6864990db6ce"


@given(st.binary(max_size=300), st.binary(max_size=40),
       st.binary(min_size=12, max_size=12), st.binary(min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_gcm_roundtrip_property(plaintext, aad, nonce, key):
    gcm = GCM(key)
    ct, tag = gcm.encrypt(nonce, plaintext, aad)
    assert len(ct) == len(plaintext)
    assert gcm.decrypt(nonce, ct, tag, aad) == plaintext


# --- detached frame tags --------------------------------------------------

def _frame_tag_fixtures(seed=0):
    import numpy as np

    from repro.crypto.modes import FrameTagKey

    rng = np.random.default_rng(seed)

    def rb(n):
        return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()

    return rng, rb, FrameTagKey


def test_frame_tag_matches_gcm_tag_arm():
    """FrameTagKey.tag IS AES-GCM's tag over a detached ciphertext:
    E_k(J0) ^ GHASH_H(aad, ct) with H = E_k(0^128)."""
    rng, rb, FrameTagKey = _frame_tag_fixtures(1)
    for _ in range(10):
        key, j0 = rb(16), rb(15) + b"\x01"
        aad, ct = rb(int(rng.integers(0, 24))), rb(int(rng.integers(0, 300)))
        gcm = GCM(key)
        expected = bytes(a ^ b for a, b in zip(
            gcm._aes.encrypt_block(j0), gcm._ghash(aad, ct)))
        assert FrameTagKey(key).tag(j0, aad, ct) == expected


def test_frame_tags_batched_matches_scalar():
    """The multi-message sweep (both the flat and the lane-folded
    paths) is bit-identical to the per-frame scalar tag, across mixed
    keys and mixed lengths in one call."""
    from repro.crypto.modes import frame_tags_batched

    rng, rb, FrameTagKey = _frame_tag_fixtures(2)
    tag_keys = [FrameTagKey(rb(16)) for _ in range(3)]
    # Short (flat sweep), long (folded sweep), and mixed batches.
    for sizes in ([1, 13, 30], [300, 2107, 500], [0, 13, 2107, 16]):
        keys, j0s, aads, cts = [], [], [], []
        for i, size in enumerate(sizes * 3):
            keys.append(tag_keys[i % 3])
            j0s.append(rb(15) + bytes([i + 1]))
            aads.append(rb(8))
            cts.append(rb(size))
        batched = frame_tags_batched(keys, j0s, aads, cts)
        for i, tag in enumerate(batched):
            assert tag == keys[i].tag(j0s[i], aads[i], cts[i]), (sizes, i)


def test_frame_tag_masks_are_the_aes_block_of_j0_across_chunks():
    """Under empty AAD and ciphertext the GHASH is zero, so a tag is its
    mask E_k(J0).  Serving's taggers read masks from a mask
    KeystreamCache at position J0; at sequences 0-19 (the short runs),
    120-259 (the first chunk edges), 5000 and the last two counters
    inc32 reaches, through tag() ascending and descending and through
    the batched sweep, every mask must be the AES block of
    frame_j0(seq) — a mask bug both sides of a ring share would still
    round-trip.  A standalone tagger (no cache) serves two J0 prefixes
    from one key object."""
    from functools import partial

    from repro.crypto.keycache import KeystreamCache
    from repro.crypto.modes import frame_tags_batched
    from repro.serve.frames import frame_j0
    from repro.serve.service import _MASK_CACHE_CHUNK_BYTES

    _, rb, FrameTagKey = _frame_tag_fixtures(5)
    key_bytes = rb(16)
    cipher = AES(key_bytes)
    seqs = [*range(20), *range(120, 260), 5000, 2**32 - 2, 2**32 - 1]
    j0s = [frame_j0(seq) for seq in seqs]
    expected = [cipher.encrypt_block(j0) for j0 in j0s]
    empty = [b""] * len(j0s)

    def cached() -> FrameTagKey:
        masks = KeystreamCache(capacity=2,
                               chunk_bytes=_MASK_CACHE_CHUNK_BYTES)
        return FrameTagKey(key_bytes, partial(masks.block, 7))

    key = cached()
    assert [key.tag(j0, b"", b"") for j0 in j0s] == expected
    key = cached()
    assert [key.tag(j0, b"", b"") for j0 in reversed(j0s)] == \
        expected[::-1]
    assert frame_tags_batched([cached()] * len(j0s), j0s, empty,
                              empty) == expected

    standalone = FrameTagKey(key_bytes)
    for prefix in (frame_j0(0)[:12], rb(12)):
        j0s = [prefix + seq.to_bytes(4, "big") for seq in seqs]
        expected = [cipher.encrypt_block(j0) for j0 in j0s]
        assert [standalone.tag(j0, b"", b"") for j0 in j0s] == expected
        assert frame_tags_batched([standalone] * len(j0s), j0s, empty,
                                  empty) == expected


def test_frame_tag_verify_rejects_any_bit_flip():
    _, rb, FrameTagKey = _frame_tag_fixtures(3)
    key = FrameTagKey(rb(16))
    j0, aad, ct = rb(15) + b"\x01", rb(8), rb(40)
    tag = key.tag(j0, aad, ct)
    assert key.verify(j0, aad, ct, tag)
    flipped = bytearray(ct)
    flipped[17] ^= 0x80
    assert not key.verify(j0, aad, bytes(flipped), tag)
    assert not key.verify(j0, aad[:-1] + b"\xff", ct, tag)
    assert not key.verify(j0, aad, ct, tag[:-1] + bytes([tag[-1] ^ 1]))


def test_frame_tag_rejects_degenerate_j0():
    """J0 == 0 would mask the tag with the GHASH key itself; wrong
    sizes are refused outright."""
    from repro.crypto.modes import frame_tags_batched

    _, rb, FrameTagKey = _frame_tag_fixtures(4)
    key = FrameTagKey(rb(16))
    with pytest.raises(KeyError_):
        key.tag(b"\x00" * 16, b"", b"data")
    with pytest.raises(KeyError_):
        key.tag(b"\x01" * 15, b"", b"data")
    with pytest.raises(KeyError_):
        frame_tags_batched([key], [b"\x00" * 16], [b""], [b"data"])
    with pytest.raises(KeyError_):
        frame_tags_batched([key, key], [b"\x01" * 16], [b""], [b"data"])
    assert frame_tags_batched([], [], [], []) == []
