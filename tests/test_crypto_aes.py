"""AES block cipher: FIPS 197 vectors and structural properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.errors import KeyError_

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

# FIPS 197 appendix C vectors.
FIPS197 = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key_hex,expected", FIPS197)
def test_fips197_encrypt(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(PLAINTEXT).hex() == expected


@pytest.mark.parametrize("key_hex,expected", FIPS197)
def test_fips197_decrypt(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(expected)) == PLAINTEXT


def test_nist_aes128_ecb_kat():
    # SP 800-38A F.1.1 first block.
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    ct = cipher.encrypt_block(bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"))
    assert ct.hex() == "3ad77bb40d7a3660a89ecaf32466ef97"


@pytest.mark.parametrize("bad_size", [0, 8, 15, 17, 31, 33, 64])
def test_invalid_key_sizes_rejected(bad_size):
    with pytest.raises(KeyError_):
        AES(b"k" * bad_size)


@pytest.mark.parametrize("bad_block", [b"", b"x" * 15, b"x" * 17])
def test_invalid_block_sizes_rejected(bad_block):
    cipher = AES(b"0" * 16)
    with pytest.raises(KeyError_):
        cipher.encrypt_block(bad_block)
    with pytest.raises(KeyError_):
        cipher.decrypt_block(bad_block)


def test_encrypt_only_cipher_never_builds_the_decryption_schedule():
    cipher = AES(bytes(range(16)))
    blocks = np.frombuffer(PLAINTEXT * 3, dtype=np.uint8).reshape(3, 16)
    sealed = cipher.encrypt_blocks(blocks)
    assert cipher.encrypt_block(PLAINTEXT) == sealed[0].tobytes()
    assert "_dk" not in vars(cipher) and "_dk_np" not in vars(cipher)
    assert np.array_equal(cipher.decrypt_blocks(sealed), blocks)
    assert cipher.decrypt_block(sealed[1].tobytes()) == PLAINTEXT


def test_rounds_by_key_size():
    assert AES(b"k" * 16).rounds == 10
    assert AES(b"k" * 24).rounds == 12
    assert AES(b"k" * 32).rounds == 14


def test_different_keys_different_ciphertexts():
    block = b"\x00" * 16
    assert AES(b"a" * 16).encrypt_block(block) != AES(b"b" * 16).encrypt_block(block)


@given(st.binary(min_size=16, max_size=16),
       st.sampled_from([16, 24, 32]),
       st.binary(min_size=1, max_size=32))
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(block, key_size, key_seed):
    key = (key_seed * 32)[:key_size]
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(st.binary(min_size=16, max_size=16))
@settings(max_examples=30, deadline=None)
def test_encryption_is_permutation(block):
    """Distinct plaintexts map to distinct ciphertexts."""
    cipher = AES(b"fixed-test-key!!")
    other = bytes(block[:-1] + bytes([block[-1] ^ 1]))
    assert cipher.encrypt_block(block) != cipher.encrypt_block(other)
