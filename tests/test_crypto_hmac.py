"""HMAC-SHA256 and HKDF: RFC vectors plus stdlib equivalence."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import (
    constant_time_eq,
    hkdf,
    hkdf_expand,
    hkdf_extract,
    hmac_sha256,
)
from repro.errors import KeyError_


# RFC 4231 test cases for HMAC-SHA256.
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
]


@pytest.mark.parametrize("key,message,expected", RFC4231)
def test_rfc4231_vectors(key, message, expected):
    assert hmac_sha256(key, message).hex() == expected


# RFC 5869 test case 1 (SHA-256).
def test_hkdf_rfc5869_case1():
    ikm = b"\x0b" * 22
    salt = bytes(range(13))
    info = bytes(range(0xF0, 0xFA))
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == ("077709362c2e32df0ddc3f0dc47bba63"
                         "90b6c73bb50f9c3122ec844ad7c2b3e5")
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == ("3cb25f25faacd57a90434f64d0362f2a"
                         "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
                         "34007208d5b887185865")


def test_hkdf_rfc5869_case3_empty_salt_info():
    ikm = b"\x0b" * 22
    okm = hkdf(ikm, salt=b"", info=b"", length=42)
    assert okm.hex() == ("8da4e775a563c18f715f802a063c5a31"
                         "b8a11f5c5ee1879ec3454e5f3c738d2d"
                         "9d201395faa4b61a96c8")


def test_hkdf_expand_length_limits():
    prk = hkdf_extract(b"salt", b"ikm")
    with pytest.raises(KeyError_):
        hkdf_expand(prk, b"", 0)
    with pytest.raises(KeyError_):
        hkdf_expand(prk, b"", 255 * 32 + 1)
    assert len(hkdf_expand(prk, b"", 255 * 32)) == 255 * 32


def test_hkdf_different_info_different_keys():
    ikm = b"master"
    assert hkdf(ikm, b"s", b"a", 16) != hkdf(ikm, b"s", b"b", 16)


def test_constant_time_eq():
    assert constant_time_eq(b"same", b"same")
    assert not constant_time_eq(b"same", b"sama")
    assert not constant_time_eq(b"short", b"longer")
    assert constant_time_eq(b"", b"")
    assert constant_time_eq(b"same", bytearray(b"same"))
    assert not constant_time_eq(bytearray(b"same"), b"sama")
    assert not constant_time_eq(b"tag", b"")
    assert not constant_time_eq(b"\x00" * 16, b"\x00" * 15)


@given(st.binary(max_size=200), st.binary(max_size=500))
@settings(max_examples=60, deadline=None)
def test_matches_stdlib_property(key, message):
    expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
    assert hmac_sha256(key, message) == expected


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=32),
       st.integers(min_value=1, max_value=128))
@settings(max_examples=40, deadline=None)
def test_hkdf_prefix_property(ikm, info, length):
    """Shorter HKDF outputs are prefixes of longer ones (RFC 5869)."""
    long_okm = hkdf(ikm, b"salt", info, 128)
    assert hkdf(ikm, b"salt", info, length) == long_okm[:length]
