"""Hash-chained, redact()-gated audit trail for fleet provisioning.

Every attestation verdict and license grant/revoke a shard decides is
appended here as an :class:`AuditRecord`.  Record details pass through
:func:`repro.obs.redact` *at append time*, so key material can never
enter the chain — a raw ``bytes`` value collapses to a ``<bytes:N>``
summary before it is encoded (the static secret-taint rule recognizes
``redact`` as a declassifier for exactly this reason).

Integrity is a segment hash chain over Merkle roots: records accumulate
until :meth:`seal` folds them into segments of ``segment_records``;
each segment's leaves (SHA-256 of the encoded records) reduce to a
binary Merkle root, and

    head_i = SHA256(head_{i-1} || root_i)

so the latest ``head`` commits to every record ever appended, in
order.  :meth:`verify` recomputes the whole chain offline from the
serialized records alone — rollback protection for the issuance
history: truncating, reordering, or editing any record breaks every
subsequent head.

Appends do no hashing at all — shards on the enrollment hot path pay
string formatting only, and seal at checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.sha256 import sha256, sha256_many
from repro.errors import ProtocolError
from repro.obs import redact

__all__ = ["AuditRecord", "AuditChain"]

GENESIS = b"\x00" * 32

# Records per sealed segment (the granularity of chained heads).
_SEGMENT_RECORDS = 512


@dataclass(frozen=True)
class AuditRecord:
    """One audited decision (already redact()-gated)."""

    seq: int
    kind: str        # "attest" | "grant" | "revoke" | "release" | ...
    detail: tuple    # (key, redacted-value-string) pairs, call order

    def encode(self) -> bytes:
        parts = [str(self.seq).encode(), self.kind.encode()]
        for key, value in self.detail:
            parts.append(key.encode())
            parts.append(value.encode())
        return b"\x1f".join(parts)


def _merkle_root(nodes: list[bytes]) -> bytes:
    """Binary Merkle root; an odd trailing node promotes unchanged."""
    while len(nodes) > 1:
        folded = sha256_many(nodes[j] + nodes[j + 1]
                             for j in range(0, len(nodes) - 1, 2))
        if len(nodes) % 2:
            folded.append(nodes[-1])
        nodes = folded
    return nodes[0]


class AuditChain:
    """Append-only audited history with an offline-checkable head."""

    def __init__(self, shard_id: str,
                 segment_records: int = _SEGMENT_RECORDS) -> None:
        if segment_records < 1:
            raise ProtocolError("segment_records must be >= 1")
        self.shard_id = shard_id
        self.segment_records = segment_records
        self.records: list[AuditRecord] = []
        self._heads: list[bytes] = []   # head after each sealed segment
        self._bounds: list[int] = []    # cumulative record count per seal
        self._sealed = 0                # records covered by self._heads

    def __len__(self) -> int:
        return len(self.records)

    def append(self, kind: str, **detail) -> AuditRecord:
        """Append one decision; every value passes through redact().

        No hashing happens here — the enrollment hot path pays string
        work only; :meth:`seal` batches the crypto at checkpoints.
        """
        gated = tuple((key, str(redact(value)))
                      for key, value in detail.items())
        record = AuditRecord(seq=len(self.records), kind=kind, detail=gated)
        self.records.append(record)
        return record

    @staticmethod
    def _chain(previous: bytes, leaves: list[bytes],
               bounds: list[int], start: int) -> list[bytes]:
        """Heads for ``leaves`` split at the (absolute) ``bounds``,
        where ``leaves[0]`` is record ``start``."""
        heads = []
        for lo, hi in zip([start] + bounds[:-1], bounds):
            previous = sha256(previous + _merkle_root(
                leaves[lo - start:hi - start]))
            heads.append(previous)
        return heads

    def seal(self) -> bytes:
        """Seal every pending record into the chain; returns the head.

        Pending records chunk into segments of ``segment_records``; a
        trailing partial chunk seals too (short segments are fine — the
        recorded bounds drive verification, not a fixed stride).
        """
        pending = self.records[self._sealed:]
        if not pending:
            return self.head
        leaves = sha256_many([record.encode() for record in pending])
        bounds = list(range(self._sealed + self.segment_records,
                            len(self.records), self.segment_records))
        bounds.append(len(self.records))
        self._heads.extend(self._chain(self.head, leaves, bounds,
                                       self._sealed))
        self._bounds.extend(bounds)
        self._sealed = len(self.records)
        return self.head

    @property
    def head(self) -> bytes:
        """Chain head over all *sealed* records."""
        return self._heads[-1] if self._heads else GENESIS

    def verify(self, records: list[AuditRecord] | None = None) -> bytes:
        """Recompute the chain offline; raises on any break.

        ``records`` defaults to the chain's own copy — pass an
        independently stored list to audit a shard you don't trust.
        Returns the recomputed head, which must equal :attr:`head`.
        """
        if records is None:
            records = self.records
        for index, record in enumerate(records):
            if record.seq != index:
                raise ProtocolError(
                    f"audit chain break on shard {self.shard_id}: record "
                    f"{index} carries seq {record.seq} (reorder/truncation)")
        if self._sealed > len(records):
            raise ProtocolError(
                f"audit chain break on shard {self.shard_id}: "
                f"{self._sealed} records sealed but only {len(records)} "
                f"presented")
        leaves = sha256_many([record.encode()
                              for record in records[:self._sealed]])
        heads = self._chain(GENESIS, leaves, list(self._bounds), 0)
        if heads != self._heads:
            raise ProtocolError(
                f"audit chain break on shard {self.shard_id}: recomputed "
                f"heads diverge (record tampering)")
        return self.head
