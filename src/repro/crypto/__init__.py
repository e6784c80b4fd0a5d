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

# ``sha256`` is also a submodule name, so it is bound eagerly (see
# :mod:`repro.lazy`); the rest resolve on first use.
from repro.crypto.sha256 import SHA256, sha256, sha256_many
from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "aes": ["AES"],
    "cert": ["Certificate", "CertificateAuthority", "verify_chain"],
    "hmac": ["constant_time_eq", "hkdf", "hmac_sha256", "hmac_sha256_keyed",
             "hmac_sha256_many"],
    "kdf": ["MODEL_KEY_SIZE", "derive_model_key"],
    "modes": ["GCM", "gcm_decrypt", "gcm_encrypt"],
    "rng": ["HmacDrbg", "default_rng"],
    "rsa": ["RsaPrivateKey", "RsaPublicKey", "generate_keypair"],
})
__all__ += ["SHA256", "sha256", "sha256_many"]
