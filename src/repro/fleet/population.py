"""Device-fleet population factory: tenants and pooled cohorts.

:meth:`DeviceFleet.build_cohort` fabricates a *pooled cohort*: many
devices sharing one attestation keypair whose report the tenant
verifies once at registration (group attestation).  Everything
per-device — membership tickets, per-step request nonces, ring
positions, storm arrival offsets — is derived at fabrication time in
batched HMAC/SHA-256 passes, so a cohort of 10^4 devices costs
fractions of a second to build and bytes-per-device to hold.

The cohort mirrors the ``ProvisioningClient`` contract at the protocol
level: one request nonce per (device, step) drawn once and reused on
every retry, a per-device step ledger (``attest`` then ``grant``), and
typed terminal states.  :meth:`DeviceCohort.complete_grants` is the
device-side unlock: verify the grant MAC, unwrap the tenant content
key, and check it against the digest pinned at fabrication — all
batched.
"""

from __future__ import annotations

from repro.crypto.cert import CertificateAuthority
from repro.crypto.hmac import (
    constant_time_eq,
    hmac_sha256,
    hmac_sha256_keyed,
    hmac_sha256_many,
)
from repro.crypto.keycache import deterministic_keypair
from repro.crypto.rng import HmacDrbg
from repro.crypto.sha256 import sha256, sha256_many
from repro.errors import ProtocolError
from repro.fleet.ring import key_positions
from repro.fleet.shard import (
    CONTENT_KEY_SIZE,
    CohortCredentials,
    EnrollLeg,
    TenantConfig,
    hex_bytes,
    xor32,
)
from repro.sanctuary.attestation import AttestationReport

__all__ = ["DeviceCohort", "DeviceFleet", "complete_grant_batches",
           "STATE_ATTEST", "STATE_GRANT", "STATE_DONE", "TERMINAL_STATES"]

STATE_ATTEST = "attest"
STATE_GRANT = "grant"
STATE_DONE = "done"
STATE_REJECTED = "rejected"
STATE_REFUSED = "refused"
STATE_ABORTED = "aborted"
TERMINAL_STATES = (STATE_DONE, STATE_REJECTED, STATE_REFUSED, STATE_ABORTED)


class DeviceCohort:
    """One fabricated pooled cohort; per-device data in parallel lists."""

    def __init__(self, tenant: str, cohort_id: str, names: list[str],
                 tickets_hex: list[str], attest_nonces: list[str],
                 grant_nonces: list[str], arrivals: list[float],
                 positions: list[int], credentials: CohortCredentials,
                 expected_key_digest: bytes) -> None:
        self.tenant = tenant
        self.cohort_id = cohort_id
        self.names = names
        self.tickets_hex = tickets_hex
        self.attest_nonces = attest_nonces
        self.grant_nonces = grant_nonces
        self.arrivals = arrivals          # storm arrival fraction in [0, 1)
        self.positions = positions        # consistent-hash ring positions
        self.credentials = credentials
        self.expected_key_digest = expected_key_digest
        # Device-side enrollment state machine (the step ledger).
        self.state = [STATE_ATTEST] * len(names)
        self.attempts = [0] * len(names)
        self.unwrapped = 0
        self.unwrap_failures = 0

    def __len__(self) -> int:
        return len(self.names)

    def leg(self, index: int) -> EnrollLeg:
        """The device's next request leg, per its step ledger."""
        step = self.state[index]
        if step not in (STATE_ATTEST, STATE_GRANT):
            raise ProtocolError(
                f"device {self.names[index]!r} is terminal ({step})")
        nonce = (self.attest_nonces if step == STATE_ATTEST
                 else self.grant_nonces)[index]
        return EnrollLeg(self.names[index], self.tenant, self.cohort_id,
                         step, nonce, self.tickets_hex[index])

    def complete_grants(self, indices: list[int],
                        replies: list) -> list[bool]:
        """Device-side unlock for a wave of ``ok`` grant replies.

        Re-derives each device's wrap key from the cohort secret (the
        pooled enclave identity every member holds), verifies the grant
        MAC, unwraps the content key, and checks its digest against the
        fabrication-pinned value.  Returns per-device success; a failed
        unwrap counts against the cohort.
        """
        return complete_grant_batches([(self, indices, replies)])[0]


def complete_grant_batches(
        batches: list[tuple["DeviceCohort", list[int], list]],
) -> list[list[bool]]:
    """Unlock grant replies for many cohorts in shared passes.

    The storm driver feeds every cohort's wave here at once, so the wrap
    keys (keyed by each cohort's secret), grant MACs, and content-key
    digest checks each run as one pass over the wave.
    """
    lanes: list[tuple[int, int, object]] = []  # batch no, device, reply
    keys: list[bytes] = []
    messages: list[bytes] = []
    for bi, (cohort, indices, replies) in enumerate(batches):
        base = cohort.credentials.wrap_base
        for i, reply in zip(indices, replies):
            lanes.append((bi, i, reply))
            keys.append(base)
            messages.append(cohort.names[i].encode() + b"|"
                            + cohort.grant_nonces[i].encode())
    wrap_keys = hmac_sha256_keyed(keys, messages)
    macs = hmac_sha256_many(
        b"fleet-grant-mac",
        [wk + reply.wrapped for wk, (_, _, reply) in zip(wrap_keys, lanes)])
    results = [[False] * len(indices) for _, indices, _ in batches]
    slots = [0] * len(batches)
    unwrapped: list[tuple[int, int, int, bytes]] = []
    for (bi, i, reply), wk, mac in zip(lanes, wrap_keys, macs):
        slot = slots[bi]
        slots[bi] += 1
        cohort = batches[bi][0]
        # The reply is untrusted: a MAC that is not hex fails like a
        # wrong one, and the comparison runs in constant time.
        presented = hex_bytes(reply.mac_hex)
        if (presented is None or not constant_time_eq(mac, presented)
                or len(reply.wrapped) != CONTENT_KEY_SIZE):
            cohort.unwrap_failures += 1
            continue
        key = xor32(reply.wrapped, wk)
        unwrapped.append((bi, i, slot, key))
    digests = sha256_many([key for _, _, _, key in unwrapped])
    for (bi, i, slot, _), digest in zip(unwrapped, digests):
        cohort = batches[bi][0]
        if digest != cohort.expected_key_digest:
            cohort.unwrap_failures += 1
            continue
        cohort.unwrapped += 1
        cohort.state[i] = STATE_DONE
        results[bi][slot] = True
    return results


class DeviceFleet:
    """Builds tenants and their pooled cohorts.

    Each tenant gets a deterministic root and platform CA and a content
    key; each cohort gets one pooled attestation report, registered with
    its tenant, and the per-device data its members enroll with through
    :meth:`~repro.fleet.shard.VendorShard.enroll_wave`.
    """

    def __init__(self, clock, tenants=("tenant-a", "tenant-b"),
                 key_bits: int = 768, seed: bytes = b"fleet-seed") -> None:
        self.clock = clock
        self.key_bits = key_bits
        self.seed = seed
        self.tenants: dict[str, TenantConfig] = {}
        self.cohorts: list[DeviceCohort] = []
        self._authorities: dict[str, tuple] = {}
        for tenant in tenants:
            self._build_tenant(tenant)

    # --- tenant trust anchors ---------------------------------------------

    def _build_tenant(self, tenant: str) -> None:
        label = tenant.encode()
        root_key = deterministic_keypair(
            self.seed + b"|fleet-root|" + label, self.key_bits)
        platform_key = deterministic_keypair(
            self.seed + b"|fleet-platform|" + label, self.key_bits)
        root_ca = CertificateAuthority(f"{tenant}-root", root_key)
        platform_ca = root_ca.subordinate(f"{tenant}-platform", platform_key)
        content_key = HmacDrbg(
            self.seed + b"|fleet-content|" + label,
            b"fleet-tenant").generate(CONTENT_KEY_SIZE)
        measurement = sha256(b"fleet-cohort-image|" + label)
        self._authorities[tenant] = (root_ca, platform_ca)
        self.tenants[tenant] = TenantConfig(
            name=tenant,
            expected_measurement=measurement,
            trusted_root=root_key.public_key,
            content_key=content_key,
        )

    # --- pooled cohorts ---------------------------------------------------

    def build_cohort(self, tenant: str, cohort_id: str,
                     count: int) -> DeviceCohort:
        """Fabricate ``count`` pooled devices and register the cohort.

        One RSA sign (the pooled report) and one RSA verify (tenant
        registration) per cohort; everything per-device is batched
        symmetric crypto.
        """
        config = self.tenants[tenant]
        root_ca, platform_ca = self._authorities[tenant]
        label = f"{tenant}|{cohort_id}".encode()
        pooled_key = deterministic_keypair(
            self.seed + b"|fleet-pool|" + tenant.encode(), self.key_bits)
        chain = (
            platform_ca.issue(cohort_id, pooled_key.public_key),
            platform_ca.certificate,
            root_ca.certificate,
        )
        report = AttestationReport.create(
            cohort_id, config.expected_measurement, pooled_key,
            challenge=b"fleet-cohort", chain=chain)
        ticket_key = HmacDrbg(self.seed + b"|fleet-ticket|" + label,
                              b"fleet-cohort").generate(32)
        credentials = CohortCredentials(
            cohort_id=cohort_id, tenant=tenant, report=report,
            ticket_key=ticket_key)
        # ``credentials`` is taint-coarse (its report was signed with
        # the pooled private key), but what register_cohort's error
        # message formats is only the cohort/tenant *name* — no key
        # material can reach that f-string.
        config.register_cohort(credentials)  # analysis: allow(secret-taint)

        names = [f"{cohort_id}/dev-{i:05d}" for i in range(count)]
        tickets = hmac_sha256_many(
            ticket_key, [b"ticket|" + n.encode() for n in names])
        fabric = hmac_sha256_many(
            hmac_sha256(self.seed, b"fleet-fabric|" + label),
            [n.encode() for n in names])
        cohort = DeviceCohort(
            tenant=tenant, cohort_id=cohort_id, names=names,
            tickets_hex=[t.hex() for t in tickets],
            attest_nonces=[f[:8].hex() for f in fabric],
            grant_nonces=[f[8:16].hex() for f in fabric],
            arrivals=[int.from_bytes(f[16:20], "big") / 2.0 ** 32
                      for f in fabric],
            positions=key_positions(names),
            credentials=credentials,
            expected_key_digest=sha256(config.content_key),
        )
        self.cohorts.append(cohort)
        return cohort

    @property
    def device_count(self) -> int:
        return sum(len(c) for c in self.cohorts)
