"""RSA: keygen, signatures, OAEP, serialization, derivations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.errors import AuthenticationError, CryptoError, KeyError_

KEY = deterministic_keypair(b"test-rsa", 768)
OTHER = deterministic_keypair(b"test-rsa-2", 768)


def test_keypair_is_consistent():
    assert KEY.n == KEY.p * KEY.q
    assert KEY.p != KEY.q
    phi = (KEY.p - 1) * (KEY.q - 1)
    assert (KEY.d * KEY.e) % phi == 1


def test_modulus_has_requested_bits():
    assert KEY.n.bit_length() == 768


@pytest.mark.parametrize("bits", [512, 768, 769, 1024])
@pytest.mark.parametrize("context", [b"size-a", b"size-b", b"size-c"])
def test_modulus_and_primes_have_exact_size(bits, context):
    key = generate_keypair(bits, HmacDrbg(context, b"keycache"))
    assert key.n.bit_length() == bits
    for prime, size in ((key.p, bits // 2), (key.q, bits - bits // 2)):
        assert prime.bit_length() == size
        assert prime >> (size - 2) == 0b11


# The contexts perfbench's four workloads pass to deterministic_keypair
# (768-bit) in set-up: platform root and platform keys, the vendor key
# and one key per enclave; the fleet's root, platform and pool keys per
# tenant.  The test seeds the DRBG as deterministic_keypair does, past
# its memo.
_PERFBENCH_KEY_CONTEXTS = [
    *(b"perfbench-" + name + suffix
      for name in (b"serve-steady", b"serve-churn")
      for suffix in (b"|root-key", b"|platform-key", b"|vendor|vendor-key",
                     b"|enclave-key|0", b"|enclave-key|1")),
    *(b"perfbench-kws-clip" + suffix
      for suffix in (b"|root-key", b"|platform-key", b"|vendor|vendor-key",
                     b"|enclave-key|0")),
    *(b"perfbench-fleet-storm|fleet-" + role + b"|tenant-" + tenant
      for tenant in (b"a", b"b") for role in (b"root", b"platform", b"pool")),
]


@pytest.mark.parametrize("context, bits", [(b"golden-ctx", 1024)] + [
    (context, 768) for context in _PERFBENCH_KEY_CONTEXTS])
def test_keypair_draws_exactly_two_primes(monkeypatch, context, bits):
    drawn = []
    generate_prime = rsa._generate_prime

    def counting(size, rng):
        drawn.append(size)
        return generate_prime(size, rng)

    monkeypatch.setattr(rsa, "_generate_prime", counting)
    generate_keypair(bits, HmacDrbg(context, b"keycache"))
    assert drawn == [bits // 2, bits - bits // 2]


_SIEVE_PRIMES = [p for p in range(3, rsa._SIEVE_BOUND, 2)
                 if all(p % f for f in range(3, p, 2))]


def test_sieve_product_is_the_odd_primes_below_the_bound():
    assert rsa._SIEVE_PRODUCT == math.prod(_SIEVE_PRIMES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 2**24), st.integers(0, 2**400)),
       st.sampled_from([1, *_SIEVE_PRIMES[:40], *_SIEVE_PRIMES[-20:]]))
def test_gcd_sieve_matches_trial_division(value, factor):
    # Multiplying by a sieve prime makes rejections common, not rare.
    candidate = (2 * value + 1) * factor
    rejected = math.gcd(candidate, rsa._SIEVE_PRODUCT) != 1
    assert rejected == any(candidate % p == 0 for p in _SIEVE_PRIMES)


@pytest.mark.parametrize("e", [1, 2, 4])
def test_keygen_rejects_even_or_tiny_exponent(e):
    with pytest.raises(KeyError_):
        generate_keypair(512, HmacDrbg(b"bad-exponent"), e=e)


@pytest.mark.parametrize("seed", [b"e15-a", b"e15-b", b"e15-c", b"e15-d"])
def test_keygen_with_composite_exponent(seed):
    key = generate_keypair(512, HmacDrbg(seed), e=15)
    phi = (key.p - 1) * (key.q - 1)
    assert key.e == 15
    assert (key.d * key.e) % phi == 1
    assert key.public_key.verify(b"m", key.sign(b"m"))


def test_keygen_is_deterministic():
    a = generate_keypair(768, HmacDrbg(b"same-seed"))
    b = generate_keypair(768, HmacDrbg(b"same-seed"))
    assert a == b


@pytest.mark.parametrize("context", [b"crt-a", b"crt-b", b"crt-c"])
def test_private_op_matches_plain_exponentiation(context):
    """The per-key CRT parameters give the textbook ``m^d mod n``."""
    key = generate_keypair(512, HmacDrbg(context))
    draws = HmacDrbg(context, b"messages")
    for value in [0, 1, key.n - 1] + [draws.randint_below(key.n)
                                      for _ in range(16)]:
        assert key._private_op(value) == pow(value, key.d, key.n)


def test_crt_parameters_stay_out_of_equality_and_repr():
    twin = rsa.RsaPrivateKey(n=KEY.n, e=KEY.e, d=KEY.d, p=KEY.p, q=KEY.q)
    assert twin == KEY and hash(twin) == hash(KEY)
    assert "_dp" not in repr(KEY)
    assert (twin._dp, twin._dq, twin._q_inv) == (KEY._dp, KEY._dq, KEY._q_inv)


def test_keygen_differs_by_seed():
    assert KEY.n != OTHER.n


def test_keygen_rejects_tiny_modulus():
    with pytest.raises(KeyError_):
        generate_keypair(256)


def test_sign_verify_roundtrip():
    signature = KEY.sign(b"attestation payload")
    assert KEY.public_key.verify(b"attestation payload", signature)


def test_verify_rejects_modified_message():
    signature = KEY.sign(b"original")
    assert not KEY.public_key.verify(b"0riginal", signature)


def test_verify_rejects_wrong_key():
    signature = KEY.sign(b"message")
    assert not OTHER.public_key.verify(b"message", signature)


def test_verify_rejects_garbage_signature():
    assert not KEY.public_key.verify(b"message", b"\x00" * KEY.size_bytes)
    assert not KEY.public_key.verify(b"message", b"short")


def test_signature_is_deterministic():
    assert KEY.sign(b"m") == KEY.sign(b"m")


def test_oaep_roundtrip():
    rng = HmacDrbg(b"oaep-rng")
    ct = KEY.public_key.encrypt_oaep(b"model key 16B!!!", rng)
    assert KEY.decrypt_oaep(ct) == b"model key 16B!!!"


def test_oaep_is_randomized():
    rng = HmacDrbg(b"oaep-rng2")
    first = KEY.public_key.encrypt_oaep(b"same", rng)
    second = KEY.public_key.encrypt_oaep(b"same", rng)
    assert first != second
    assert KEY.decrypt_oaep(first) == KEY.decrypt_oaep(second) == b"same"


def test_oaep_wrong_key_fails():
    rng = HmacDrbg(b"oaep-rng3")
    ct = KEY.public_key.encrypt_oaep(b"secret", rng)
    with pytest.raises(AuthenticationError):
        OTHER.decrypt_oaep(ct)


def test_oaep_tamper_fails():
    rng = HmacDrbg(b"oaep-rng4")
    ct = bytearray(KEY.public_key.encrypt_oaep(b"secret", rng))
    ct[-1] ^= 1
    with pytest.raises(AuthenticationError):
        KEY.decrypt_oaep(bytes(ct))


def test_oaep_label_mismatch_fails():
    rng = HmacDrbg(b"oaep-rng5")
    ct = KEY.public_key.encrypt_oaep(b"secret", rng, label=b"A")
    with pytest.raises(AuthenticationError):
        KEY.decrypt_oaep(ct, label=b"B")
    # And the matching label succeeds.
    ct2 = KEY.public_key.encrypt_oaep(b"secret", rng, label=b"A")
    assert KEY.decrypt_oaep(ct2, label=b"A") == b"secret"


def test_oaep_plaintext_size_limit():
    rng = HmacDrbg(b"oaep-rng6")
    max_len = KEY.size_bytes - 2 * 32 - 2
    KEY.public_key.encrypt_oaep(b"x" * max_len, rng)
    with pytest.raises(CryptoError):
        KEY.public_key.encrypt_oaep(b"x" * (max_len + 1), rng)


def test_public_key_serialization_roundtrip():
    blob = KEY.public_key.to_bytes()
    parsed = RsaPublicKey.from_bytes(blob)
    assert parsed == KEY.public_key
    assert parsed.fingerprint() == KEY.public_key.fingerprint()


def test_public_key_parse_rejects_truncated():
    with pytest.raises(KeyError_):
        RsaPublicKey.from_bytes(b"\x00\x00")


def test_derive_symmetric_key_contexts_differ():
    a = KEY.derive_symmetric_key(b"context-a")
    b = KEY.derive_symmetric_key(b"context-b")
    assert a != b
    assert len(a) == 16
    assert KEY.derive_symmetric_key(b"context-a") == a


def test_keycache_returns_same_object():
    assert deterministic_keypair(b"test-rsa", 768) is KEY
