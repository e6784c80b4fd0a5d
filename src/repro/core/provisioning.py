"""Model encryption and untrusted-storage provisioning.

The vendor encrypts the serialized model under the per-enclave key K_U
with AES-GCM; the ciphertext sits in normal-world flash (paper §V
step 4) and survives reboots, so preparation runs once per model
version.  The GCM AAD binds enclave identity, model version, and the
KDF nonce, which is what makes rollback and cross-enclave replay fail
authentication rather than silently succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.protocol import DEFAULT_STEP_TIMEOUTS, Phase, StepIo
from repro.crypto.modes import GCM, gcm_decrypt, gcm_encrypt
from repro.crypto.rng import HmacDrbg
from repro.errors import (
    AuthenticationError,
    ChannelTimeout,
    FaultInjected,
    LicenseError,
    ProtocolError,
    ProvisioningAborted,
    RetryExhausted,
)

__all__ = ["EncryptedModel", "encrypt_model", "decrypt_model",
           "flash_path_for", "VendorServer", "ProvisioningClient"]


@dataclass(frozen=True)
class EncryptedModel:
    """The provisioned artifact: ciphertext plus public binding data."""

    enclave_id: str
    model_name: str
    model_version: int
    key_nonce: bytes          # the KDF nonce n (public)
    blob: bytes = field(repr=False)  # nonce || ciphertext || tag

    def aad(self) -> bytes:
        return _aad(self.enclave_id, self.model_name, self.model_version,
                    self.key_nonce)

    def to_bytes(self) -> bytes:
        """Flat encoding for flash storage."""
        head = "|".join([
            self.enclave_id, self.model_name, str(self.model_version),
            self.key_nonce.hex(),
        ]).encode()
        return len(head).to_bytes(4, "big") + head + self.blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedModel":
        """Parse :meth:`to_bytes` output; a record read back from
        untrusted flash that does not parse raises
        :class:`ProtocolError` with a constant message."""
        if len(data) < 4:
            raise ProtocolError("truncated encrypted-model record")
        head_len = int.from_bytes(data[:4], "big")
        if 4 + head_len > len(data):
            raise ProtocolError("truncated encrypted-model record")
        try:
            # UnicodeDecodeError is a ValueError, as are a wrong field
            # count, a bad version number and bad nonce hex.
            enclave_id, model_name, version, nonce_hex = (
                data[4:4 + head_len].decode().split("|"))
            model_version, key_nonce = int(version), bytes.fromhex(nonce_hex)
        except ValueError:
            raise ProtocolError("malformed encrypted-model header") from None
        return cls(
            enclave_id=enclave_id,
            model_name=model_name,
            model_version=model_version,
            key_nonce=key_nonce,
            blob=data[4 + head_len:],
        )


def _aad(enclave_id: str, model_name: str, version: int,
         key_nonce: bytes) -> bytes:
    return b"|".join([
        b"OMG-MODEL", enclave_id.encode(), model_name.encode(),
        str(version).encode(), key_nonce,
    ])


def encrypt_model(model_bytes: bytes, key: bytes, enclave_id: str,
                  model_name: str, model_version: int, key_nonce: bytes,
                  rng: HmacDrbg) -> EncryptedModel:
    """Vendor side: AES-GCM under K_U with identity-binding AAD."""
    gcm_nonce = rng.generate(12)
    aad = _aad(enclave_id, model_name, model_version, key_nonce)
    blob = gcm_encrypt(key, gcm_nonce, model_bytes, aad)
    return EncryptedModel(
        enclave_id=enclave_id, model_name=model_name,
        model_version=model_version, key_nonce=key_nonce, blob=blob,
    )


def decrypt_model(encrypted: EncryptedModel, key: bytes) -> bytes:
    """Enclave side: authenticate and decrypt the provisioned model.

    Raises :class:`AuthenticationError` if the key is wrong (e.g. a
    rollback attempt with a stale nonce) or the ciphertext/AAD was
    modified in untrusted storage.
    """
    try:
        return gcm_decrypt(key, encrypted.blob, encrypted.aad())
    except AuthenticationError:
        raise AuthenticationError(
            f"model {encrypted.model_name!r} v{encrypted.model_version} "
            "failed authenticated decryption (wrong key, tampered "
            "ciphertext, or rollback attempt)"
        ) from None


def flash_path_for(enclave_app_name: str, model_name: str,
                   model_version: int) -> str:
    """Canonical untrusted-flash path for a provisioned model."""
    return f"omg/{enclave_app_name}/{model_name}-v{model_version}.enc"


# --- resilient provisioning over a lossy channel ---------------------------
#
# Fig. 2 steps 2-6 as an at-most-once RPC exchange: the enclave-side
# ProvisioningClient drives the steps through a ReliableRequester, the
# vendor-side VendorServer answers behind a ReliableResponder.  Every
# vendor operation is bound to a client request nonce, so retransmitted
# retries are answered from cache (no license double spend, no KDF
# nonce rotation mid-flight), and the client's step ledger makes a
# half-finished run resumable after a crash or timeout.

_OP_ATTEST = b"A"
_OP_MODEL = b"M"
_OP_KEY = b"K"
_REQUEST_NONCE_LEN = 8
_STATUS_OK = b"OK"


def _pack_wrapped(wrapped: "WrappedKey") -> bytes:  # noqa: F821
    head = f"{wrapped.enclave_id}|{wrapped.model_version}".encode()
    return len(head).to_bytes(4, "big") + head + wrapped.wrapped


def _unpack_wrapped(data: bytes):
    from repro.core.parties import WrappedKey

    if len(data) < 4:
        raise ProtocolError("truncated wrapped-key record")
    head_len = int.from_bytes(data[:4], "big")
    if 4 + head_len > len(data):
        raise ProtocolError("truncated wrapped-key record")
    try:
        # UnicodeDecodeError is a ValueError, as are a wrong field
        # count and a bad version number.
        enclave_id, version = data[4:4 + head_len].decode().split("|")
        model_version = int(version)
    except ValueError:
        raise ProtocolError("malformed wrapped-key header") from None
    return WrappedKey(enclave_id=enclave_id, model_version=model_version,
                      wrapped=data[4 + head_len:])


class VendorServer:
    """Vendor-side protocol handler (runs behind a ReliableResponder)."""

    def __init__(self, vendor, expected_measurement: bytes, trusted_root,
                 clock, license_policy=None) -> None:
        self.vendor = vendor
        self.expected_measurement = expected_measurement
        self.trusted_root = trusted_root
        self.clock = clock
        self.license_policy = license_policy

    def handle(self, payload: bytes) -> bytes:
        from repro.sanctuary.attestation import AttestationReport

        if not payload:
            raise ProtocolError("empty provisioning request")
        op, body = payload[:1], payload[1:]
        if op == _OP_ATTEST:
            report = AttestationReport.from_bytes(body)
            self.vendor.accept_attestation(
                report, self.expected_measurement, self.trusted_root,
                self.license_policy)
            return _STATUS_OK
        if op in (_OP_MODEL, _OP_KEY):
            if len(body) < _REQUEST_NONCE_LEN:
                raise ProtocolError("provisioning request missing nonce")
            nonce = body[:_REQUEST_NONCE_LEN]
            try:
                enclave_id = body[_REQUEST_NONCE_LEN:].decode()
            except UnicodeDecodeError:
                raise ProtocolError("malformed enclave id") from None
            if op == _OP_MODEL:
                encrypted = self.vendor.provision_model(
                    enclave_id, request_nonce=nonce)
                return encrypted.to_bytes()
            wrapped = self.vendor.release_key(
                enclave_id, self.clock.now_ms, request_nonce=nonce)
            return _pack_wrapped(wrapped)
        raise ProtocolError("unknown provisioning opcode")


class ProvisioningClient:
    """Enclave-side driver of steps 2-6: retries, resumes, fails typed.

    The step ledger (``completed``) survives across :meth:`run` calls,
    so a run that died on a timeout picks up where it left off.  Request
    nonces are drawn once per step and reused on every retry *and* every
    resume — the vendor's caches make the whole flow idempotent.
    """

    STEPS = ("attest", "model", "install", "key", "unlock")

    def __init__(self, app, instance, requester, deliver, clock,
                 transcript=None, nonce_rng: HmacDrbg | None = None,
                 timeouts=None) -> None:
        self.app = app
        self.instance = instance
        self.requester = requester
        self.deliver = deliver
        self.clock = clock
        self.transcript = transcript
        self.timeouts = timeouts or DEFAULT_STEP_TIMEOUTS
        self._nonce_rng = nonce_rng or HmacDrbg(b"provisioning-client")
        self._step_nonces: dict[str, bytes] = {}
        self.completed: set[str] = set()
        self.rounds = 0

    def _nonce_for(self, step: str) -> bytes:
        """One nonce per step, stable across retries and resumes."""
        nonce = self._step_nonces.get(step)
        if nonce is None:
            nonce = self._nonce_rng.generate(_REQUEST_NONCE_LEN)
            self._step_nonces[step] = nonce
        return nonce

    def _request(self, step_number: int, payload: bytes,
                 description: str) -> bytes:
        budget = self.timeouts.budget_for(step_number)
        return self.requester.request(
            payload, self.deliver, fatal=(LicenseError,),
            timeout_ms=budget, description=description)

    def _record(self, number: int, phase, io, moved: int,
                start_ms: float) -> None:
        if self.transcript is not None:
            self.transcript.record(number, phase, io, moved, start_ms,
                                   self.clock.now_ms)

    def run(self, resume_rounds: int = 3, until: Phase | None = None
            ) -> None:
        """Drive the remaining steps; resume on transient exhaustion.

        ``until=Phase.PREPARATION`` stops after step 4, so a caller can
        run Fig. 2's two phases apart; a later :meth:`run` picks up at
        step 5.  Raises :class:`~repro.errors.ProvisioningAborted` once
        this call has burned ``resume_rounds`` rounds without finishing;
        ``rounds`` counts across calls.
        Vendor refusals (:class:`~repro.errors.LicenseError`) propagate
        immediately — retrying a refusal is not resilience.
        """
        last: BaseException | None = None
        for _ in range(resume_rounds):
            self.rounds += 1
            try:
                self._run_remaining_steps(until)
                return
            except LicenseError:
                raise
            except (RetryExhausted, ChannelTimeout, AuthenticationError,
                    FaultInjected, ProtocolError) as exc:
                last = exc
        raise ProvisioningAborted(
            f"provisioning still incomplete after {resume_rounds} rounds "
            f"(done: {sorted(self.completed)})"
        ) from last

    def _run_remaining_steps(self, until: Phase | None) -> None:
        ctx = self.instance.ctx
        enclave_id = self.instance.instance_name

        if "attest" not in self.completed:
            start = self.clock.now_ms
            report_bytes = self.instance.report.to_bytes()
            reply = self._request(2, _OP_ATTEST + report_bytes,
                                  "step 2 (attestation)")
            if reply != _STATUS_OK:
                raise ProtocolError("vendor rejected attestation frame")
            # The paper's step 2: the channel key exchange plus the
            # sealed report record.
            self._record(2, Phase.PREPARATION, StepIo.UNTRUSTED,
                         self.requester.endpoint.key_exchange_bytes
                         + len(report_bytes) + GCM.tag_size, start)
            self.completed.add("attest")

        if "model" not in self.completed:
            start = self.clock.now_ms
            blob = self._request(
                3, _OP_MODEL + self._nonce_for("model") + enclave_id.encode(),
                "step 3 (model provisioning)")
            self._encrypted_model = EncryptedModel.from_bytes(blob)
            self._record(3, Phase.PREPARATION, StepIo.UNTRUSTED,
                         len(self._encrypted_model.blob), start)
            self.completed.add("model")

        if "install" not in self.completed:
            start = self.clock.now_ms
            self.app.install_model(ctx, self._encrypted_model)
            self._record(4, Phase.PREPARATION, StepIo.UNTRUSTED,
                         len(self._encrypted_model.blob), start)
            self.completed.add("install")

        if until is Phase.PREPARATION:
            return

        if "key" not in self.completed:
            start = self.clock.now_ms
            reply = self._request(
                5, _OP_KEY + self._nonce_for("key") + enclave_id.encode(),
                "step 5 (key release)")
            self._wrapped = _unpack_wrapped(reply)
            self._record(5, Phase.INITIALIZATION, StepIo.UNTRUSTED,
                         len(self._wrapped.wrapped), start)
            self.completed.add("key")

        if "unlock" not in self.completed:
            start = self.clock.now_ms
            try:
                self.app.unlock_model(ctx, self._wrapped,
                                      self._encrypted_model.model_name)
            except (AuthenticationError, ProtocolError):
                # The flash blob failed authentication — it was damaged
                # between provisioning and unlock (dropped/corrupted bus
                # writes).  Refetch and reinstall on the next round.
                self.completed.discard("model")
                self.completed.discard("install")
                raise
            self._record(6, Phase.INITIALIZATION, StepIo.INTERNAL, 0, start)
            self.completed.add("unlock")
