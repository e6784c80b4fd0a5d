"""Vendor-side license management.

Paper §V (initialization phase): "V can actively manage the access of U
to the model by either sending or not sending the symmetric key K_U.
In case of, e.g., an expired license, V can stop sending K_U to the
enclave, making it fail to decrypt the locally stored model."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LicenseError

__all__ = ["LicensePolicy", "LicenseState"]


@dataclass
class LicensePolicy:
    """Terms the vendor enforces before releasing K_U.

    ``valid_until_ms`` is compared against the platform's virtual clock;
    ``max_key_requests`` caps how many times the key may be re-issued
    (each enclave relaunch needs a fresh init phase).
    """

    valid_until_ms: float | None = None
    max_key_requests: int | None = None


class LicenseState:
    """Tracks one enclave's license over time."""

    def __init__(self, enclave_id: str, policy: LicensePolicy) -> None:
        self.enclave_id = enclave_id
        self.policy = policy
        self.key_requests = 0
        self.revoked = False

    def revoke(self) -> None:
        self.revoked = True

    def authorize_key_release(self, now_ms: float) -> None:
        """Check the policy, then charge one key request."""
        self.check_key_release(now_ms)
        self.key_requests += 1

    def check_key_release(self, now_ms: float) -> None:
        """Raise :class:`LicenseError` unless K_U may be released now."""
        if self.revoked:
            raise LicenseError(
                f"license for {self.enclave_id!r} has been revoked"
            )
        policy = self.policy
        if policy.valid_until_ms is not None and now_ms > policy.valid_until_ms:
            raise LicenseError(
                f"license for {self.enclave_id!r} expired at "
                f"{policy.valid_until_ms:.0f} ms (now {now_ms:.0f} ms)"
            )
        if (policy.max_key_requests is not None
                and self.key_requests >= policy.max_key_requests):
            raise LicenseError(
                f"license for {self.enclave_id!r} exhausted its "
                f"{policy.max_key_requests} key requests"
            )
