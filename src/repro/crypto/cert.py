"""Certificate hierarchy for platform and enclave keys.

The paper describes the enclave key pair as "derived from the platform
certificate issued by the device vendor, effectively creating a
certificate hierarchy similar to SSL certificates" (§V).  We model a
minimal X.509-like chain: a device-manufacturer root signs a platform
certificate, which signs per-enclave certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import CertificateError

__all__ = ["Certificate", "CertificateAuthority", "verify_chain"]


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject name to a public key."""

    subject: str
    issuer: str
    public_key: RsaPublicKey
    serial: int
    signature: bytes = field(repr=False)

    def tbs_bytes(self) -> bytes:
        """The to-be-signed byte encoding of this certificate."""
        return _tbs_bytes(self.subject, self.issuer, self.public_key, self.serial)

    def to_bytes(self) -> bytes:
        """Wire encoding (length-prefixed fields)."""
        def field_bytes(data: bytes) -> bytes:
            return len(data).to_bytes(4, "big") + data

        return b"".join([
            field_bytes(self.subject.encode()),
            field_bytes(self.issuer.encode()),
            field_bytes(self.public_key.to_bytes()),
            self.serial.to_bytes(8, "big"),
            field_bytes(self.signature),
        ])

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["Certificate", int]:
        """Parse a certificate; returns (certificate, bytes_consumed)."""
        def take(offset: int) -> tuple[bytes, int]:
            if offset + 4 > len(data):
                raise CertificateError("truncated certificate encoding")
            length = int.from_bytes(data[offset:offset + 4], "big")
            end = offset + 4 + length
            if end > len(data):
                raise CertificateError("truncated certificate field")
            return data[offset + 4:end], end

        subject, offset = take(0)
        issuer, offset = take(offset)
        pk_bytes, offset = take(offset)
        if offset + 8 > len(data):
            raise CertificateError("truncated certificate serial")
        serial = int.from_bytes(data[offset:offset + 8], "big")
        signature, offset = take(offset + 8)
        try:
            subject_name, issuer_name = subject.decode(), issuer.decode()
        except UnicodeDecodeError:
            raise CertificateError("malformed certificate name") from None
        certificate = cls(
            subject=subject_name, issuer=issuer_name,
            public_key=RsaPublicKey.from_bytes(pk_bytes),
            serial=serial, signature=signature)
        return certificate, offset


def _tbs_bytes(subject: str, issuer: str, public_key: RsaPublicKey,
               serial: int) -> bytes:
    return b"|".join([
        b"CERTv1",
        subject.encode(),
        issuer.encode(),
        public_key.to_bytes(),
        serial.to_bytes(8, "big"),
    ])


class CertificateAuthority:
    """An issuing key plus its own certificate (self-signed for roots)."""

    def __init__(self, name: str, private_key: RsaPrivateKey,
                 certificate: Certificate | None = None) -> None:
        self.name = name
        self._private_key = private_key
        self._serial = 0
        if certificate is None:
            certificate = self._self_sign()
        self.certificate = certificate

    @property
    def public_key(self) -> RsaPublicKey:
        return self._private_key.public_key

    def _self_sign(self) -> Certificate:
        tbs = _tbs_bytes(self.name, self.name, self.public_key, 0)
        return Certificate(
            subject=self.name,
            issuer=self.name,
            public_key=self.public_key,
            serial=0,
            signature=self._private_key.sign(tbs),
        )

    def issue(self, subject: str, public_key: RsaPublicKey) -> Certificate:
        """Issue a certificate for ``subject``'s ``public_key``."""
        self._serial += 1
        tbs = _tbs_bytes(subject, self.name, public_key, self._serial)
        return Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            serial=self._serial,
            signature=self._private_key.sign(tbs),
        )

    def subordinate(self, name: str, private_key: RsaPrivateKey) -> "CertificateAuthority":
        """Create a subordinate CA whose certificate this CA signs."""
        cert = self.issue(name, private_key.public_key)
        return CertificateAuthority(name, private_key, cert)


def verify_chain(chain: list[Certificate], trusted_root: RsaPublicKey) -> None:
    """Verify ``chain`` (leaf first) up to a trusted root key.

    Raises :class:`CertificateError` on any break in the chain.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject:
            raise CertificateError(
                f"issuer mismatch: {child.subject!r} issued by {child.issuer!r}, "
                f"but next certificate is for {parent.subject!r}"
            )
        if not parent.public_key.verify(child.tbs_bytes(), child.signature):
            raise CertificateError(f"bad signature on {child.subject!r}")
    root = chain[-1]
    if root.public_key != trusted_root:
        raise CertificateError("chain does not terminate at the trusted root")
    if not trusted_root.verify(root.tbs_bytes(), root.signature):
        raise CertificateError("root certificate signature invalid")
