"""RSA key generation, PKCS#1 v1.5 signatures, and OAEP encryption.

SANCTUARY assigns each enclave an asymmetric key pair derived from the
platform certificate (paper §V, preparation phase); the attestation
report is a signature over the enclave measurement, and the vendor uses
the enclave public key when deriving the model key K_U.

Prime candidates are odd with their top two bits set, so the product of
two primes always has the requested size and a key pair draws exactly
two primes.  One gcd against the product of the odd primes below
``_SIEVE_BOUND`` rejects most composites before the 24 Miller-Rabin
rounds a survivor must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.crypto.hmac import constant_time_eq, hkdf
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256
from repro.errors import AuthenticationError, CryptoError, KeyError_

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair"]

_MILLER_RABIN_ROUNDS = 24

# A candidate sharing a factor with _SIEVE_PRODUCT, the product of the
# odd primes below _SIEVE_BOUND, is composite; one gcd rejects it
# without a modular exponentiation.  Measured on 768-bit keys, bounds
# from 2048 to 4096 cost the same per key; 1024 costs about 3 % more,
# and 174 (the old trial-division list) about 18 %.
_SIEVE_BOUND = 2048
_SIEVE_PRODUCT = math.prod(
    p for p in range(3, _SIEVE_BOUND, 2)
    if all(p % f for f in range(3, math.isqrt(p) + 1, 2)))

# SHA-256 DigestInfo prefix for PKCS#1 v1.5 (DER encoded).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")


def _miller_rabin(n: int, rng: HmacDrbg) -> bool:
    """Probable-prime test of an odd ``n`` above the sieve bound."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = 2 + rng.randint_below(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: HmacDrbg) -> int:
    """Draw a prime of ``bits`` bits whose top two bits are set."""
    while True:
        candidate = rng.random_odd(bits) | 1 << (bits - 2)
        if (math.gcd(candidate, _SIEVE_PRODUCT) == 1
                and _miller_rabin(candidate, rng)):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Serialize as length-prefixed big-endian integers."""
        n_bytes = self.n.to_bytes(self.size_bytes, "big")
        e_bytes = self.e.to_bytes((self.e.bit_length() + 7) // 8, "big")
        return (
            len(n_bytes).to_bytes(4, "big") + n_bytes
            + len(e_bytes).to_bytes(4, "big") + e_bytes
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        """Parse the :meth:`to_bytes` serialization."""
        if len(data) < 8:
            raise KeyError_("truncated RSA public key")
        n_len = int.from_bytes(data[:4], "big")
        offset = 4 + n_len
        if offset + 4 > len(data):
            raise KeyError_("truncated RSA public key")
        n = int.from_bytes(data[4:offset], "big")
        e_len = int.from_bytes(data[offset:offset + 4], "big")
        if offset + 4 + e_len > len(data):
            raise KeyError_("truncated RSA public key")
        e = int.from_bytes(data[offset + 4:offset + 4 + e_len], "big")
        if n == 0 or e == 0:
            raise KeyError_("malformed RSA public key")
        return cls(n=n, e=e)

    def fingerprint(self) -> bytes:
        """SHA-256 fingerprint of the serialized key."""
        return sha256(self.to_bytes())

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5 SHA-256 signature; return True/False."""
        if len(signature) != self.size_bytes:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(self.size_bytes, "big")
        expected = _pkcs1_v15_pad(message, self.size_bytes)
        return constant_time_eq(em, expected)

    def encrypt_oaep(self, plaintext: bytes, rng: HmacDrbg, label: bytes = b"") -> bytes:
        """RSA-OAEP(SHA-256) encryption of a short plaintext."""
        k = self.size_bytes
        h_len = 32
        if len(plaintext) > k - 2 * h_len - 2:
            raise CryptoError("OAEP plaintext too long for key size")
        l_hash = sha256(label)
        ps = b"\x00" * (k - len(plaintext) - 2 * h_len - 2)
        db = l_hash + ps + b"\x01" + plaintext
        seed = rng.generate(h_len)
        db_mask = _mgf1(seed, k - h_len - 1)
        masked_db = bytes(a ^ b for a, b in zip(db, db_mask))
        seed_mask = _mgf1(masked_db, h_len)
        masked_seed = bytes(a ^ b for a, b in zip(seed, seed_mask))
        em = b"\x00" + masked_seed + masked_db
        m = int.from_bytes(em, "big")
        return pow(m, self.e, self.n).to_bytes(k, "big")


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast exponentiation.

    The CRT exponents and coefficient are derived once per key; they are
    left out of equality and ``repr``, so keys compare as ``(n, e, d, p,
    q)`` as before.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    _dp: int = field(init=False, compare=False, repr=False)
    _dq: int = field(init=False, compare=False, repr=False)
    _q_inv: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dp", self.d % (self.p - 1))
        object.__setattr__(self, "_dq", self.d % (self.q - 1))
        object.__setattr__(self, "_q_inv", pow(self.q, -1, self.p))

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _private_op(self, value: int) -> int:
        # CRT: ~4x faster than a single pow(value, d, n).
        m1 = pow(value % self.p, self._dp, self.p)
        m2 = pow(value % self.q, self._dq, self.q)
        h = (self._q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def sign(self, message: bytes) -> bytes:
        """PKCS#1 v1.5 SHA-256 signature over ``message``."""
        em = _pkcs1_v15_pad(message, self.size_bytes)
        m = int.from_bytes(em, "big")
        return self._private_op(m).to_bytes(self.size_bytes, "big")

    def decrypt_oaep(self, ciphertext: bytes, label: bytes = b"") -> bytes:
        """RSA-OAEP(SHA-256) decryption."""
        k = self.size_bytes
        h_len = 32
        if len(ciphertext) != k or k < 2 * h_len + 2:
            raise AuthenticationError("OAEP decryption error")
        c = int.from_bytes(ciphertext, "big")
        if c >= self.n:
            raise AuthenticationError("OAEP decryption error")
        em = self._private_op(c).to_bytes(k, "big")
        masked_seed = em[1:1 + h_len]
        masked_db = em[1 + h_len:]
        seed_mask = _mgf1(masked_db, h_len)
        seed = bytes(a ^ b for a, b in zip(masked_seed, seed_mask))
        db_mask = _mgf1(seed, k - h_len - 1)
        db = bytes(a ^ b for a, b in zip(masked_db, db_mask))
        l_hash = sha256(label)
        ok = em[0] == 0 and constant_time_eq(db[:h_len], l_hash)
        # Find the 0x01 separator without leaking position via exceptions.
        sep = db.find(b"\x01", h_len)
        if not ok or sep < 0 or any(db[h_len:sep]):
            raise AuthenticationError("OAEP decryption error")
        return db[sep + 1:]

    def derive_symmetric_key(self, context: bytes, length: int = 16) -> bytes:
        """Derive a symmetric key bound to this key pair and ``context``."""
        ikm = self.d.to_bytes(self.size_bytes, "big")
        return hkdf(ikm, salt=b"repro.rsa.derive", info=context, length=length)


def _pkcs1_v15_pad(message: bytes, em_len: int) -> bytes:
    t = _SHA256_PREFIX + sha256(message)
    if em_len < len(t) + 11:
        raise CryptoError("RSA modulus too small for PKCS#1 v1.5 SHA-256")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


def _mgf1(seed: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += sha256(seed + counter.to_bytes(4, "big"))
        counter += 1
    return out[:length]


def generate_keypair(bits: int = 1024, rng: HmacDrbg | None = None,
                     e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA key pair deterministically from ``rng``.

    1024-bit keys are the default: ample for a simulation while keeping
    deterministic key generation fast.  ``p`` has ``bits // 2`` bits and
    ``q`` the rest, each with its top two bits set, so ``p * q`` always
    has exactly ``bits`` bits and each ``k``-bit prime is at least
    sqrt(2) * 2**(k - 1) (FIPS 186-4 B.3.3).  A candidate must pass the
    gcd sieve and 24 Miller-Rabin rounds.  The pair is drawn again only
    when ``p == q`` or ``e`` shares a factor with phi.
    """
    if bits < 512:
        raise KeyError_("RSA modulus must be at least 512 bits")
    if e < 3 or e % 2 == 0:
        raise KeyError_("RSA public exponent must be odd and at least 3")
    if rng is None:
        rng = HmacDrbg(b"repro.rsa.default-seed")
    half = bits // 2
    while True:
        p = _generate_prime(half, rng)
        q = _generate_prime(bits - half, rng)
        phi = (p - 1) * (q - 1)
        if p == q or math.gcd(e, phi) != 1:
            continue
        return RsaPrivateKey(n=p * q, e=e, d=pow(e, -1, phi), p=p, q=q)
