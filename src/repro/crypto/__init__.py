"""Cryptographic substrate for the OMG reproduction.

Hashing runs on the standard library's ``hashlib``/``hmac``; the block
cipher, its modes, RSA and the DRBG are implemented here.

Contents:

* :mod:`~repro.crypto.sha256` — SHA-256 (FIPS 180-4), one-shot and batch
* :mod:`~repro.crypto.hmac` — HMAC-SHA256 (one-shot and batch), HKDF,
  constant-time compare
* :mod:`~repro.crypto.aes` — AES-128/192/256 block cipher
* :mod:`~repro.crypto.modes` — AES-CTR and AES-GCM
* :mod:`~repro.crypto.rsa` — RSA keygen / PKCS#1 v1.5 sign / OAEP
* :mod:`~repro.crypto.rng` — HMAC-DRBG deterministic randomness
* :mod:`~repro.crypto.kdf` — the OMG K_U = KDF(PK, n) derivation
* :mod:`~repro.crypto.cert` — platform/enclave certificate hierarchy
"""

from repro.crypto.aes import AES
from repro.crypto.cert import Certificate, CertificateAuthority, verify_chain
from repro.crypto.hmac import (
    constant_time_eq,
    hkdf,
    hmac_sha256,
    hmac_sha256_keyed,
    hmac_sha256_many,
)
from repro.crypto.kdf import MODEL_KEY_SIZE, derive_model_key
from repro.crypto.modes import GCM, gcm_decrypt, gcm_encrypt
from repro.crypto.rng import HmacDrbg, default_rng
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.crypto.sha256 import SHA256, sha256, sha256_many

__all__ = [
    "AES", "GCM", "gcm_encrypt", "gcm_decrypt",
    "SHA256", "sha256", "hmac_sha256", "hkdf", "constant_time_eq",
    "sha256_many", "hmac_sha256_many", "hmac_sha256_keyed",
    "RsaPublicKey", "RsaPrivateKey", "generate_keypair",
    "HmacDrbg", "default_rng",
    "derive_model_key", "MODEL_KEY_SIZE",
    "Certificate", "CertificateAuthority", "verify_chain",
]
