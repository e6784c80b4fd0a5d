"""Vendor shards: per-tenant attestation + license issuance endpoints.

A :class:`VendorShard` is one failure domain of the fleet control
plane.  It serves two enrollment paths:

* **Full fidelity** — :meth:`handle` wraps the existing
  :class:`~repro.core.provisioning.VendorServer` wire protocol (one per
  tenant, each with its own measurement root), adding write-ahead
  journaling of every key release and hash-chained audit records around
  every attestation verdict.  This is the path a real
  ``ProvisioningClient`` drives over a secure channel, and the one the
  shard-failover tests exercise.

* **Pooled lightweight** — :meth:`enroll_wave` serves cohorts of
  simulated devices that share one attestation keypair (group
  attestation, EPID-style: the cohort's report is RSA-verified *once*
  at registration; individual devices then authenticate with cheap
  HMAC membership tickets).  Per-device crypto inside a wave is a few
  HMAC/SHA-256 calls per leg, which is what makes 10^5 enrollments
  affordable — see :mod:`repro.fleet.population`.

Both paths share the shard's :class:`~repro.fleet.journal.LicenseJournal`
(the at-most-one-live-license invariant) and
:class:`~repro.fleet.audit.AuditChain` (every verdict and grant/revoke,
redact()-gated).  Crash semantics: :meth:`crash` drops all in-memory
state; :meth:`restart` replays the journal.  Ticket checks are
stateless (every leg re-presents its ticket), so a device mid-enrollment
survives its shard crashing — or failing over to a different shard —
without losing idempotency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.crypto.hmac import (
    constant_time_eq,
    hmac_sha256,
    hmac_sha256_keyed,
    hmac_sha256_many,
)
from repro.crypto.sha256 import sha256, sha256_many
from repro.errors import (
    AttestationError,
    ChannelTimeout,
    FaultInjected,
    LicenseError,
)
from repro.faults import hooks as _faults
from repro.fleet.audit import AuditChain
from repro.fleet.journal import LicenseJournal
from repro.obs import hooks as _obs
from repro.sanctuary.attestation import verify_report

__all__ = ["TenantConfig", "CohortCredentials", "EnrollLeg", "EnrollReply",
           "VendorShard", "CONTENT_KEY_SIZE"]

CONTENT_KEY_SIZE = 32

_OP_KEY = b"K"
_OP_ATTEST = b"A"
_REQUEST_NONCE_LEN = 8


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

    The tenant backend — vendor object, content key, registered
    cohorts — models the tenant's durable service-side database: it is
    shared by every shard serving the tenant and survives individual
    shard crashes (shards are stateless frontends plus their own
    journal/audit storage).
    """

    def __init__(self, name: str, expected_measurement: bytes,
                 trusted_root, vendor=None, license_policy=None,
                 content_key: bytes | None = None) -> None:
        self.name = name
        self.expected_measurement = expected_measurement
        self.trusted_root = trusted_root
        self.vendor = vendor
        self.license_policy = license_policy
        if content_key is not None and len(content_key) != CONTENT_KEY_SIZE:
            raise LicenseError("tenant content key must be 32 bytes")
        self._content_key = content_key
        self.cohorts: dict[str, CohortCredentials] = {}

    @property
    def content_key(self) -> bytes:
        if self._content_key is None:
            raise LicenseError(
                f"tenant {self.name!r} has no pooled content key")
        return self._content_key

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


@dataclass(frozen=True)
class EnrollLeg:
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


@dataclass(frozen=True)
class EnrollReply:
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


def _xor32(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class VendorShard:
    """One sharded frontend: servers, journal, audit, crash/restart."""

    def __init__(self, shard_id: str, clock,
                 tenants: dict[str, TenantConfig]) -> None:
        self.shard_id = shard_id
        self.clock = clock
        self.tenants = dict(tenants)
        self.journal = LicenseJournal(shard_id)
        self.audit = AuditChain(shard_id)
        self.up = True
        self.crashes = 0
        self.enrollments_handled = 0
        self.tickets_rejected = 0
        self.grants = 0
        self.refusals = 0
        self._servers: dict[str, object] = {}

    # --- lifecycle --------------------------------------------------------

    def crash(self) -> None:
        """Lose all in-memory state; durable journal/audit survive."""
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.journal.live = {}
        self._servers = {}

    def restart(self):
        """Come back up by replaying the journal; returns the report."""
        report = self.journal.recover()
        self.up = True
        return report

    def _tenant(self, name: str) -> TenantConfig:
        config = self.tenants.get(name)
        if config is None:
            raise LicenseError(f"shard {self.shard_id} does not serve "
                               f"tenant {name!r}")
        return config

    def _fault_op(self) -> None:
        if _faults.PLAN is not None and _faults.PLAN.fleet_shard(
                self.shard_id):
            self.crash()

    # --- full-fidelity path (VendorServer wire protocol) ------------------

    def server_for(self, tenant: str):
        from repro.core.provisioning import VendorServer

        config = self._tenant(tenant)
        if config.vendor is None:
            raise LicenseError(
                f"tenant {tenant!r} has no full-fidelity vendor backend")
        server = self._servers.get(tenant)
        if server is None:
            server = VendorServer(
                config.vendor, config.expected_measurement,
                config.trusted_root, self.clock,
                license_policy=config.license_policy)
            self._servers[tenant] = server
        return server

    def handle(self, tenant: str, payload: bytes,
               device: str | None = None) -> bytes:
        """VendorServer dispatch + journaling/audit around it.

        ``device`` is the stable fleet identity behind the enclave id in
        the payload (defaults to the enclave id itself).  Key releases
        are journaled *before* the reply leaves the shard — write-ahead
        — so a crash between journal append and reply is answered
        idempotently on retry (journal replay + the vendor's own
        release cache).
        """
        self._fault_op()
        if not self.up:
            raise ChannelTimeout(
                f"shard {self.shard_id} is down (crashed)")
        server = self.server_for(tenant)
        op = payload[:1]
        self.enrollments_handled += 1
        if op == _OP_ATTEST:
            try:
                reply = server.handle(payload)
            except AttestationError as exc:
                self.audit.append("attest", tenant=tenant,
                                  device=device or "?", verdict="fail",
                                  reason=str(exc)[:80])
                raise
            self.audit.append("attest", tenant=tenant,
                              device=device or "?", verdict="pass")
            return reply
        if op == _OP_KEY:
            body = payload[1:]
            nonce_hex = body[:_REQUEST_NONCE_LEN].hex()
            enclave_id = body[_REQUEST_NONCE_LEN:].decode()
            subject = device or enclave_id
            try:
                reply = server.handle(payload)
            except LicenseError as exc:
                self.refusals += 1
                self.audit.append("refuse", tenant=tenant, device=subject,
                                  reason=str(exc)[:80])
                raise
            digest_hex = sha256(reply).hex()
            try:
                status = self.journal.grant(subject, tenant, nonce_hex,
                                            digest_hex)
            except LicenseError:
                self.refusals += 1
                self.audit.append("refuse", tenant=tenant, device=subject,
                                  reason="journal double spend")
                raise
            except FaultInjected:
                self.crash()
                raise
            if status == "granted":
                self.grants += 1
                self.audit.append("grant", tenant=tenant, device=subject,
                                  nonce=nonce_hex, key_digest=digest_hex)
            return reply
        return server.handle(payload)

    # --- pooled lightweight path ------------------------------------------

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

        # Membership-ticket verification, one pass over every cohort in
        # the wave (each leg keyed by its own cohort's ticket key).
        expected: dict[int, str] = {}
        wrap_bases: dict[tuple[str, str], bytes] = {}
        known: list[int] = []
        for index in admitted:
            leg = legs[index]
            pair = (leg.tenant, leg.cohort)
            if pair not in wrap_bases:
                credentials = self._tenant(leg.tenant).cohorts.get(
                    leg.cohort)
                if credentials is None:
                    continue  # unknown cohort: member legs are rejected
                wrap_bases[pair] = credentials.wrap_base
            known.append(index)
        ticket_macs = hmac_sha256_keyed(
            [self._tenant(legs[i].tenant).cohorts[legs[i].cohort].ticket_key
             for i in known],
            [b"ticket|" + legs[i].device.encode() for i in known])
        for i, mac in zip(known, ticket_macs):
            expected[i] = mac.hex()

        grant_indices = []
        for index in admitted:
            leg = legs[index]
            want = expected.get(index)
            if want is None or not constant_time_eq(
                    bytes.fromhex(want), bytes.fromhex(leg.ticket_hex)):
                self.tickets_rejected += 1
                self.audit.append("attest", tenant=leg.tenant,
                                  device=leg.device, verdict="fail",
                                  reason="bad membership ticket")
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
                [wrap_bases[(legs[i].tenant, legs[i].cohort)]
                 for i in grant_indices],
                [legs[i].device.encode() + b"|"
                 + legs[i].nonce_hex.encode() for i in grant_indices])
            wrapped_blobs = []
            for slot, index in enumerate(grant_indices):
                leg = legs[index]
                content = self._tenant(leg.tenant).content_key
                wrapped_blobs.append(_xor32(content, wrap_keys[slot]))
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
                try:
                    status = self.journal.grant(
                        leg.device, leg.tenant, leg.nonce_hex,
                        digests[slot].hex())
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
                                      key_digest=digests[slot].hex())
                # The grant is durable from here on; losing the *reply*
                # (fleet.reply fault) leaves an at-least-once retry that
                # may land on another shard — reconcile's job.
                if (_faults.PLAN is not None
                        and _faults.PLAN.fleet_reply()):
                    replies[index] = EnrollReply(leg.device, "grant",
                                                 "dropped")
                    continue
                replies[index] = EnrollReply(
                    leg.device, "grant", "ok",
                    wrapped=wrapped_blobs[slot], mac_hex=macs[slot].hex())

        if _obs.TELEMETRY is not None:
            _obs.TELEMETRY.metrics.gauge(
                "omg_fleet_journal_lag",
                "journal records since last snapshot/compact").set(
                    float(self.journal.lag), shard=self.shard_id)
        return replies  # type: ignore[return-value]
