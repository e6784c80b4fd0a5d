"""Vendor shards: per-tenant attestation + license issuance endpoints.

A :class:`VendorShard` is one failure domain of the fleet control
plane.  It serves one enrollment protocol, :meth:`enroll_wave`: waves
of simulated devices from pooled cohorts that share one attestation
keypair (group attestation, EPID-style: the cohort's report is
RSA-verified *once* at registration; individual devices then
authenticate with cheap HMAC membership tickets).  Per-device crypto
inside a wave is a few HMAC/SHA-256 calls per leg, which is what makes
10^5 enrollments affordable — see :mod:`repro.fleet.population`.

Every leg is untrusted input.  It is checked once, before any crypto
(served tenant, known step, 8-byte hex nonce, valid membership
ticket); a leg that fails is rejected and audited, and the rest of the
wave is still answered.  Grants go through the shard's
:class:`~repro.fleet.journal.LicenseJournal` (the
at-most-one-live-license invariant) and every verdict and
grant/revoke through its :class:`~repro.fleet.audit.AuditChain`
(redact()-gated).  Crash semantics: :meth:`crash` drops all in-memory
state; :meth:`restart` replays the journal.  Ticket checks are
stateless (every leg re-presents its ticket), so a device mid-enrollment
survives its shard crashing — or failing over to a different shard —
without losing idempotency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.crypto.hmac import (
    constant_time_eq,
    hmac_sha256,
    hmac_sha256_keyed,
    hmac_sha256_many,
)
from repro.crypto.sha256 import sha256_many
from repro.errors import AttestationError, FaultInjected, LicenseError
from repro.faults import hooks as _faults
from repro.fleet.audit import AuditChain
from repro.fleet.journal import LicenseJournal
from repro.obs import hooks as _obs
from repro.sanctuary.attestation import verify_report

__all__ = ["TenantConfig", "CohortCredentials", "EnrollLeg", "EnrollReply",
           "VendorShard", "CONTENT_KEY_SIZE"]

CONTENT_KEY_SIZE = 32

_STEPS = frozenset(("attest", "grant"))
_NONCE_LEN = 8  # bytes, matching the ProvisioningClient nonce


@dataclass(frozen=True)
class CohortCredentials:
    """One pooled cohort's group-attestation material.

    ``ticket_key`` is the shared secret the cohort enclave derives from
    its sealed identity; in deployment it reaches the vendor wrapped
    under the vendor's public key during cohort registration (one OAEP
    per *cohort*, amortized over every member device).
    """

    cohort_id: str
    tenant: str
    report: object                  # AttestationReport for the pooled key
    ticket_key: bytes = field(repr=False)

    @cached_property
    def wrap_base(self) -> bytes:
        # cached_property writes to __dict__ directly, which a frozen
        # dataclass permits; one scalar HMAC per cohort lifetime.
        return hmac_sha256(self.ticket_key, b"fleet-wrap-base")


class TenantConfig:
    """One tenant's trust anchors and (shared) backend state.

    The tenant backend — content key, registered cohorts — models the
    tenant's durable service-side database: it is shared by every shard
    serving the tenant and survives individual shard crashes (shards
    are stateless frontends plus their own journal/audit storage).
    """

    def __init__(self, name: str, expected_measurement: bytes,
                 trusted_root, content_key: bytes) -> None:
        if len(content_key) != CONTENT_KEY_SIZE:
            raise LicenseError("tenant content key must be 32 bytes")
        self.name = name
        self.expected_measurement = expected_measurement
        self.trusted_root = trusted_root
        self.content_key = content_key
        self.cohorts: dict[str, CohortCredentials] = {}

    def register_cohort(self, credentials: CohortCredentials) -> None:
        """Verify the cohort's pooled report once, then admit members.

        This is the single expensive RSA verification the whole cohort
        amortizes; raises :class:`AttestationError` on a bad report.
        """
        if credentials.tenant != self.name:
            raise AttestationError(
                f"cohort {credentials.cohort_id!r} belongs to tenant "
                f"{credentials.tenant!r}, not {self.name!r}")
        verify_report(credentials.report, self.expected_measurement,
                      self.trusted_root)
        self.cohorts[credentials.cohort_id] = credentials


class EnrollLeg(NamedTuple):
    """One lightweight enrollment request leg (attest or grant).

    Mirrors one step of the resumable ``ProvisioningClient``: the
    ``nonce_hex`` is drawn once per (device, step) at fabrication and
    reused on every retry, so replays are idempotent end to end.
    """

    device: str
    tenant: str
    cohort: str
    step: str        # "attest" | "grant"
    nonce_hex: str
    ticket_hex: str


class EnrollReply(NamedTuple):
    """Shard's answer to one leg.  ``status``:

    * ``ok`` — leg served (``grant`` legs carry the wrapped key)
    * ``dropped`` — lost in transit (fleet.rpc fault): retry
    * ``down`` — shard crashed / not serving: retry (possibly failover)
    * ``rejected`` — membership ticket failed verification (terminal)
    * ``refused`` — license invariant refused the grant (terminal)
    """

    device: str
    step: str
    status: str
    wrapped: bytes = b""
    mac_hex: str = ""


def xor32(a: bytes, b: bytes) -> bytes:
    """``a XOR b`` for two 32-byte strings, as two big integers."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        32, "big")


def hex_bytes(text: str) -> bytes | None:
    """The bytes an untrusted hex string spells, or ``None`` when it is
    not hex (odd length, a non-hex digit, a non-ASCII character)."""
    try:
        return bytes.fromhex(text)
    except (TypeError, ValueError):
        return None


class VendorShard:
    """One sharded frontend: enroll waves, journal, audit, crash/restart."""

    def __init__(self, shard_id: str,
                 tenants: dict[str, TenantConfig]) -> None:
        self.shard_id = shard_id
        self.tenants = dict(tenants)
        self.journal = LicenseJournal(shard_id)
        self.audit = AuditChain(shard_id)
        self.up = True
        self.crashes = 0
        self.enrollments_handled = 0
        self.tickets_rejected = 0
        self.grants = 0
        self.refusals = 0

    # --- lifecycle --------------------------------------------------------

    def crash(self) -> None:
        """Lose all in-memory state; durable journal/audit survive."""
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.journal.drop_memory()

    def restart(self):
        """Come back up by replaying the journal; returns the report."""
        report = self.journal.recover()
        self.up = True
        return report

    def _fault_op(self) -> None:
        if _faults.PLAN is not None and _faults.PLAN.fleet_shard(
                self.shard_id):
            self.crash()

    # --- enrollment -------------------------------------------------------

    def enroll_wave(self, legs: list[EnrollLeg]) -> list[EnrollReply]:
        """Serve a wave of enrollment legs with batched crypto.

        Fault hooks are consumed per leg in wave order, so transcripts
        are deterministic; ticket verification, wrap-key derivation,
        and grant MACs each run as one pass over the wave.
        """
        replies: list[EnrollReply | None] = [None] * len(legs)
        admitted: list[int] = []
        for index, leg in enumerate(legs):
            if _faults.PLAN is not None:
                self._fault_op()
                if self.up and _faults.PLAN.fleet_rpc():
                    replies[index] = EnrollReply(leg.device, leg.step,
                                                 "dropped")
                    continue
            if not self.up:
                replies[index] = EnrollReply(leg.device, leg.step, "down")
                continue
            admitted.append(index)

        # The legs are untrusted: each is checked once, before any
        # crypto, and a malformed one is rejected below like a wrong
        # ticket, so the rest of the wave is still answered.  Then the
        # membership tickets are verified in one pass over every cohort
        # in the wave (each leg keyed by its own cohort's ticket key).
        cohorts: dict[tuple[str, str], CohortCredentials] = {}
        known: list[int] = []
        malformed: set[int] = set()
        for index in admitted:
            leg = legs[index]
            if (leg.step not in _STEPS
                    or len(leg.nonce_hex) != 2 * _NONCE_LEN
                    or len(hex_bytes(leg.nonce_hex) or b"") != _NONCE_LEN):
                malformed.add(index)
                continue
            pair = (leg.tenant, leg.cohort)
            if pair not in cohorts:
                config = self.tenants.get(leg.tenant)
                credentials = (None if config is None
                               else config.cohorts.get(leg.cohort))
                if credentials is None:
                    # An unserved tenant or unknown cohort has no ticket
                    # key to check against: member legs are rejected.
                    continue
                cohorts[pair] = credentials
            known.append(index)
        ticket_macs = hmac_sha256_keyed(
            [cohorts[(legs[i].tenant, legs[i].cohort)].ticket_key
             for i in known],
            [b"ticket|" + legs[i].device.encode() for i in known])
        expected = dict(zip(known, ticket_macs))

        grant_indices = []
        for index in admitted:
            leg = legs[index]
            want = expected.get(index)
            # A ticket that is not hex is a wrong ticket.
            presented = hex_bytes(leg.ticket_hex)
            if (want is None or presented is None
                    or not constant_time_eq(want, presented)):
                self.tickets_rejected += 1
                self.audit.append("attest", tenant=leg.tenant,
                                  device=leg.device, verdict="fail",
                                  reason=("malformed leg"
                                          if index in malformed
                                          else "bad membership ticket"))
                replies[index] = EnrollReply(leg.device, leg.step,
                                             "rejected")
            elif leg.step == "attest":
                self.enrollments_handled += 1
                self.audit.append("attest", tenant=leg.tenant,
                                  device=leg.device, verdict="pass",
                                  cohort=leg.cohort)
                replies[index] = EnrollReply(leg.device, "attest", "ok")
            else:
                grant_indices.append(index)

        if grant_indices:
            # wk = HMAC(wrap_base, device|nonce); wrapped = K_M xor wk;
            # mac = HMAC(wk || wrapped) — one pass each over the wave.
            wrap_keys = hmac_sha256_keyed(
                [cohorts[(legs[i].tenant, legs[i].cohort)].wrap_base
                 for i in grant_indices],
                [legs[i].device.encode() + b"|"
                 + legs[i].nonce_hex.encode() for i in grant_indices])
            wrapped_blobs = []
            for slot, index in enumerate(grant_indices):
                leg = legs[index]
                content = self.tenants[leg.tenant].content_key
                wrapped_blobs.append(xor32(content, wrap_keys[slot]))
            macs = hmac_sha256_many(
                b"fleet-grant-mac",
                [wrap_keys[slot] + wrapped_blobs[slot]
                 for slot in range(len(grant_indices))])
            digests = sha256_many(wrapped_blobs)
            for slot, index in enumerate(grant_indices):
                leg = legs[index]
                if not self.up:
                    replies[index] = EnrollReply(leg.device, "grant", "down")
                    continue
                digest_hex = digests[slot].hex()
                try:
                    status = self.journal.grant(
                        leg.device, leg.tenant, leg.nonce_hex, digest_hex)
                except LicenseError:
                    self.refusals += 1
                    self.audit.append("refuse", tenant=leg.tenant,
                                      device=leg.device,
                                      reason="journal double spend")
                    replies[index] = EnrollReply(leg.device, "grant",
                                                 "refused")
                    continue
                except FaultInjected:
                    self.crash()
                    replies[index] = EnrollReply(leg.device, "grant", "down")
                    continue
                self.enrollments_handled += 1
                if status == "granted":
                    self.grants += 1
                    self.audit.append("grant", tenant=leg.tenant,
                                      device=leg.device, nonce=leg.nonce_hex,
                                      key_digest=digest_hex)
                # The grant is durable from here on; losing the *reply*
                # (fleet.reply fault) leaves an at-least-once retry that
                # may land on another shard — reconcile's job.
                if (_faults.PLAN is not None
                        and _faults.PLAN.fleet_reply()):
                    replies[index] = EnrollReply(leg.device, "grant",
                                                 "dropped")
                    continue
                replies[index] = EnrollReply(
                    leg.device, "grant", "ok", wrapped_blobs[slot],
                    macs[slot].hex())

        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.gauge(
                "omg_fleet_journal_lag",
                "journal records since last snapshot/compact").set(
                    float(self.journal.lag), shard=self.shard_id)
        return replies  # type: ignore[return-value]
