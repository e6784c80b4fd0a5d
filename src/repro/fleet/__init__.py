"""Sharded fleet provisioning control plane.

Multi-tenant attestation + license issuance for very large simulated
device fleets: consistent-hash shard routing (:mod:`repro.fleet.ring`),
write-ahead license journals with crash recovery
(:mod:`repro.fleet.journal`), hash-chained redacted audit trails
(:mod:`repro.fleet.audit`), per-tenant vendor shards serving one
pooled group-attestation enrollment path (:mod:`repro.fleet.shard`),
cohort fabrication (:mod:`repro.fleet.population`), and the
routing/failover/storm driver (:mod:`repro.fleet.director`).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "audit": ["AuditChain", "AuditRecord"],
    "director": ["FleetDirector", "StormReport"],
    "journal": ["Grant", "LicenseJournal", "RecoveryReport"],
    "population": ["DeviceCohort", "DeviceFleet"],
    "ring": ["HashRing", "key_position", "key_positions"],
    "shard": ["CONTENT_KEY_SIZE", "CohortCredentials", "EnrollLeg",
              "EnrollReply", "TenantConfig", "VendorShard"],
})
