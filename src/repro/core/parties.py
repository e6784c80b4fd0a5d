"""The two protocol parties: the user U and the vendor V.

The vendor owns the model IP and the key-release decision; the user owns
the device (and its manufacturer root of trust) and verifies that the
enclave is genuine before speaking to it (paper §IV, §V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.kdf import derive_model_key
from repro.crypto.rng import HmacDrbg
from repro.crypto.keycache import SecretCache, deterministic_keypair
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import AttestationError, LicenseError, ProtocolError
from repro.sanctuary.attestation import AttestationReport, verify_report
from repro.core.license import LicensePolicy, LicenseState
from repro.core.provisioning import EncryptedModel, encrypt_model
from repro.tflm.model import Model
from repro.tflm.serialize import serialize_model

__all__ = ["WrappedKey", "Vendor", "User"]


@dataclass(frozen=True)
class WrappedKey:
    """K_U wrapped under the enclave's public key for delivery."""

    enclave_id: str
    model_version: int
    wrapped: bytes = field(repr=False)


class Vendor:
    """The model owner / service provider V."""

    # Retransmission-cache bound.  A well-behaved client holds at most
    # one in-flight request nonce per step, so capacity only needs to
    # cover the concurrently retrying population — not history.  At
    # fleet scale an unbounded dict keyed by (enclave, nonce) grows one
    # entry per enrollment forever; the LRU keeps the newest entries
    # (retries always re-present the newest nonce) and scrubs evicted
    # values on the way out.
    RETRANSMIT_CACHE_CAPACITY = 4096

    def __init__(self, name: str, model: Model,
                 seed: bytes = b"vendor-seed", key_bits: int = 1024,
                 cache_capacity: int | None = None) -> None:
        self.name = name
        self._rng = HmacDrbg(seed, b"vendor")
        self._master_secret = self._rng.generate(32)
        self.signing_key: RsaPrivateKey = deterministic_keypair(
            seed + b"|vendor-key", key_bits)
        self._model = model
        self._model_bytes = serialize_model(model)
        self.model_version = model.metadata.version
        # Per-enclave state established during preparation.
        self._enclaves: dict[str, RsaPublicKey] = {}
        self._nonces: dict[str, bytes] = {}
        self._licenses: dict[str, LicenseState] = {}
        # Retransmission caches: responses bound to a client request
        # nonce, so a replayed retry is answered idempotently instead
        # of re-consuming license state or rotating KDF nonces.
        # Bounded LRU (scrub-on-evict): an evicted entry only means a
        # *very* stale retry is re-served by the normal path.
        capacity = cache_capacity or self.RETRANSMIT_CACHE_CAPACITY
        self._provision_cache = SecretCache(capacity)
        self._release_cache = SecretCache(capacity)
        self.provisioned_count = 0
        self.keys_released = 0

    @property
    def public_key(self) -> RsaPublicKey:
        return self.signing_key.public_key

    @property
    def model_bytes(self) -> bytes:
        return self._model_bytes

    # --- preparation phase -------------------------------------------------

    def accept_attestation(self, report: AttestationReport,
                           expected_measurement: bytes,
                           trusted_root: RsaPublicKey,
                           policy: LicensePolicy | None = None) -> None:
        """Step 2 of Fig. 2: verify the enclave before provisioning.

        Raises :class:`AttestationError` if the report does not verify;
        on success the enclave is registered for provisioning.
        """
        verify_report(report, expected_measurement, trusted_root)
        self._enclaves[report.enclave_name] = report.public_key
        self._licenses[report.enclave_name] = LicenseState(
            report.enclave_name, policy or LicensePolicy())

    def provision_model(self, enclave_id: str,
                        request_nonce: bytes | None = None) -> EncryptedModel:
        """Step 3 of Fig. 2: Enc(model, K_U) for a registered enclave.

        A fresh nonce n is drawn per (enclave, model version); K_U =
        KDF(PK, n) never leaves the vendor here — only the ciphertext.

        ``request_nonce`` makes the call idempotent for retransmission:
        a replay with the same nonce returns the cached ciphertext
        instead of rotating the KDF nonce (which would strand a
        partially provisioned enclave with an undecryptable blob).
        """
        pk = self._enclaves.get(enclave_id)
        if pk is None:
            raise ProtocolError(
                f"enclave {enclave_id!r} has not passed attestation"
            )
        if request_nonce is not None:
            cached = self._provision_cache.get((enclave_id, request_nonce))
            if cached is not None:
                return cached
        nonce = self._rng.generate(16)
        self._nonces[enclave_id] = nonce
        key = derive_model_key(pk, nonce, self._master_secret)
        self.provisioned_count += 1
        encrypted = encrypt_model(
            self._model_bytes, key, enclave_id,
            self._model.metadata.name, self.model_version, nonce, self._rng,
        )
        if request_nonce is not None:
            self._provision_cache.put((enclave_id, request_nonce), encrypted)
        return encrypted

    # --- initialization phase -----------------------------------------------

    def release_key(self, enclave_id: str, now_ms: float,
                    request_nonce: bytes | None = None) -> WrappedKey:
        """Step 5 of Fig. 2: send K_U if (and only if) the license allows.

        The key is wrapped under the enclave's attested public key, so a
        normal-world relay cannot learn it.

        ``request_nonce`` binds the release to one client request: a
        replayed retry with the same nonce gets the *same* wrapped key
        back without consuming another license request — no double
        spend, no matter how many times a flaky channel retransmits.
        """
        pk = self._enclaves.get(enclave_id)
        nonce = self._nonces.get(enclave_id)
        if pk is None or nonce is None:
            raise ProtocolError(
                f"no provisioning state for enclave {enclave_id!r}"
            )
        license_state = self._licenses[enclave_id]
        if request_nonce is not None:
            cached = self._release_cache.get((enclave_id, request_nonce))
            if cached is not None and not license_state.revoked:
                return cached
        license_state.check_key_release(now_ms)  # raises LicenseError
        key = derive_model_key(pk, nonce, self._master_secret)
        wrapped = WrappedKey(
            enclave_id=enclave_id,
            model_version=self.model_version,
            wrapped=pk.encrypt_oaep(key, self._rng),
        )
        # Charge only once the wrapped key exists: a failed wrap (the
        # OAEP seed draw) caches nothing, so the retry must not pay twice.
        license_state.authorize_key_release(now_ms)
        self.keys_released += 1
        if request_nonce is not None:
            self._release_cache.put((enclave_id, request_nonce), wrapped)
        return wrapped

    # --- management -----------------------------------------------------

    def revoke(self, enclave_id: str) -> None:
        """Stop releasing K_U to this enclave (license revocation)."""
        if enclave_id in self._licenses:
            self._licenses[enclave_id].revoke()
        # A revoked enclave must not be able to replay a cached release.
        self._release_cache.discard_if(lambda key: key[0] == enclave_id)

    def license_state(self, enclave_id: str) -> LicenseState:
        if enclave_id not in self._licenses:
            raise LicenseError(f"no license for {enclave_id!r}")
        return self._licenses[enclave_id]

    def update_model(self, new_model: Model) -> None:
        """Deploy a new model version; old nonces become stale.

        Re-provisioning with fresh nonces is what defeats rollback: the
        key for any previously stored ciphertext is never derived again.
        """
        if new_model.metadata.version <= self.model_version:
            raise ProtocolError(
                f"model update must increase the version "
                f"({new_model.metadata.version} <= {self.model_version})"
            )
        self._model = new_model
        self._model_bytes = serialize_model(new_model)
        self.model_version = new_model.metadata.version
        self._nonces.clear()
        self._provision_cache.clear()
        self._release_cache.clear()


class User:
    """The device owner U."""

    def __init__(self, name: str = "user") -> None:
        self.name = name
        self.verified_enclaves: set[str] = set()

    def verify_enclave(self, report: AttestationReport,
                       expected_measurement: bytes,
                       trusted_root: RsaPublicKey) -> None:
        """Step 1 of Fig. 2: check the attestation before trusting I/O."""
        verify_report(report, expected_measurement, trusted_root)
        self.verified_enclaves.add(report.enclave_name)

    def trusts(self, enclave_id: str) -> bool:
        return enclave_id in self.verified_enclaves
