"""Enclave measurement and attestation reports.

Paper §V (preparation phase): SANCTUARY hashes the enclave's initial
memory content; the report — measurement signed with the enclave's
secret key, public key certified by the platform CA — convinces both the
user and the vendor that the intended code is running before any secret
(the model key K_U) is released.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.cert import Certificate, verify_chain
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.sha256 import sha256
from repro.errors import AttestationError

__all__ = ["measure", "AttestationReport", "verify_report"]


def measure(initial_memory: bytes) -> bytes:
    """SHA-256 measurement of an enclave's initial memory content."""
    return sha256(b"SANCTUARY-MEASUREMENT-v1|" + initial_memory)


@dataclass(frozen=True)
class AttestationReport:
    """A signed statement: "enclave with this measurement holds this PK"."""

    enclave_name: str
    measurement: bytes
    public_key: RsaPublicKey
    challenge: bytes
    certificate_chain: tuple[Certificate, ...]
    signature: bytes = field(repr=False)

    def payload(self) -> bytes:
        return b"|".join([
            b"ATTESTv1",
            self.enclave_name.encode(),
            self.measurement,
            self.public_key.to_bytes(),
            self.challenge,
        ])

    def to_bytes(self) -> bytes:
        """Wire encoding, for transport over the vendor channel."""
        def field_bytes(data: bytes) -> bytes:
            return len(data).to_bytes(4, "big") + data

        parts = [
            field_bytes(self.enclave_name.encode()),
            field_bytes(self.measurement),
            field_bytes(self.public_key.to_bytes()),
            field_bytes(self.challenge),
            len(self.certificate_chain).to_bytes(2, "big"),
        ]
        parts.extend(field_bytes(cert.to_bytes())
                     for cert in self.certificate_chain)
        parts.append(field_bytes(self.signature))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttestationReport":
        """Parse the :meth:`to_bytes` encoding."""
        from repro.crypto.rsa import RsaPublicKey

        def take(offset: int) -> tuple[bytes, int]:
            if offset + 4 > len(data):
                raise AttestationError("truncated attestation report")
            length = int.from_bytes(data[offset:offset + 4], "big")
            end = offset + 4 + length
            if end > len(data):
                raise AttestationError("truncated attestation field")
            return data[offset + 4:end], end

        name, offset = take(0)
        measurement, offset = take(offset)
        pk_bytes, offset = take(offset)
        challenge, offset = take(offset)
        if offset + 2 > len(data):
            raise AttestationError("truncated certificate count")
        count = int.from_bytes(data[offset:offset + 2], "big")
        offset += 2
        chain = []
        for _ in range(count):
            cert_bytes, offset = take(offset)
            certificate, _ = Certificate.from_bytes(cert_bytes)
            chain.append(certificate)
        signature, offset = take(offset)
        try:
            enclave_name = name.decode()
        except UnicodeDecodeError:
            raise AttestationError("malformed enclave name") from None
        return cls(
            enclave_name=enclave_name, measurement=measurement,
            public_key=RsaPublicKey.from_bytes(pk_bytes),
            challenge=challenge, certificate_chain=tuple(chain),
            signature=signature)

    @classmethod
    def create(cls, enclave_name: str, measurement: bytes,
               private_key: RsaPrivateKey, challenge: bytes,
               chain: tuple[Certificate, ...]) -> "AttestationReport":
        unsigned = cls(
            enclave_name=enclave_name,
            measurement=measurement,
            public_key=private_key.public_key,
            challenge=challenge,
            certificate_chain=chain,
            signature=b"",
        )
        return cls(
            enclave_name=enclave_name,
            measurement=measurement,
            public_key=private_key.public_key,
            challenge=challenge,
            certificate_chain=chain,
            signature=private_key.sign(unsigned.payload()),
        )


def verify_report(report: AttestationReport,
                  expected_measurement: bytes,
                  trusted_root: RsaPublicKey,
                  expected_challenge: bytes | None = None) -> None:
    """Full verification a relying party (user or vendor) performs.

    Checks, in order: certificate chain to the manufacturer root, that
    the certified key matches the report key, the report signature, the
    measurement, and (optionally) challenge freshness.  Raises
    :class:`AttestationError` with a reason on the first failure.
    """
    from repro.errors import CertificateError

    chain = list(report.certificate_chain)
    if not chain:
        raise AttestationError("report carries no certificate chain")
    try:
        verify_chain(chain, trusted_root)
    except CertificateError as error:
        raise AttestationError(f"certificate chain invalid: {error}") from error
    leaf = chain[0]
    if leaf.public_key != report.public_key:
        raise AttestationError("certified key does not match report key")
    if leaf.subject != report.enclave_name:
        raise AttestationError(
            f"certificate subject {leaf.subject!r} does not match "
            f"enclave name {report.enclave_name!r}"
        )
    if not report.public_key.verify(report.payload(), report.signature):
        raise AttestationError("report signature invalid")
    if report.measurement != expected_measurement:
        raise AttestationError(
            "measurement mismatch: enclave code is not the expected build"
        )
    if expected_challenge is not None and report.challenge != expected_challenge:
        raise AttestationError("stale or mismatched attestation challenge")
