"""Append-only license-issuance journal with snapshot/compact recovery.

The journal is a shard's *durable* license state: every grant, revoke,
and release is encoded (length + CRC framed) and appended to a
simulated durable medium before the shard replies to the device —
write-ahead, exactly like the at-most-once caches of PR 2 but
persistent across shard crashes.  In-memory state is a pure fold over
the records, so a restarted shard rebuilds it with :meth:`recover`.

Invariant enforced here: **at most one live license per device.**
A :meth:`grant` against a device that already holds a live grant either
returns ``"replay"`` (same request nonce — the idempotent-retry path,
mirroring ``Vendor``'s release cache) or raises
:class:`~repro.errors.LicenseError` (a genuine double spend).

Failure model:

* ``journal.append`` fault (action ``torn``): the record is written
  truncated and the append raises — a WAL can only tear its *tail*
  record, so the owner must treat the torn write as a crash.  Recovery
  detects the tear by frame length/CRC and drops it; the grant it
  carried was never acknowledged, so the device's retry re-grants.
  A tear only ever cuts the last record short, so every other damage
  is corruption: a bad CRC, bad magic, an unknown kind, or a length
  field that runs past the medium while the record's own fields end
  inside it.  Recovery raises :class:`~repro.errors.ProtocolError`
  for each instead of truncating acknowledged grants.
* Shard crash: :meth:`drop_memory` discards in-memory state;
  :meth:`recover` replays ``snapshot + tail`` and reports what it
  dropped.  A snapshot never tears, so one short of any byte or of its
  record count raises.

:meth:`compact` folds the live state into a snapshot and truncates the
tail, bounding replay time; ``lag`` (records since the last snapshot)
is exported as a gauge by the director.  When every tail record is a
grant of a device not yet live, in increasing lsn order, the new
snapshot is the old snapshot's records followed by the tail's bytes
under a new head: exactly the bytes re-encoding the live state would
give, without encoding a record.  After any other tail (a revoke, a
release, a torn write) the live state is re-encoded.  Between
:meth:`drop_memory` and :meth:`recover` the live state is not the
medium's, so :meth:`compact` raises :class:`~repro.errors.ProtocolError`
rather than snapshot it over acknowledged grants.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import FaultInjected, LicenseError, ProtocolError
from repro.faults import hooks as _faults

__all__ = ["Grant", "LicenseJournal", "RecoveryReport",
           "KIND_GRANT", "KIND_REVOKE", "KIND_RELEASE"]

_MAGIC = 0xA5
KIND_GRANT = 1
KIND_REVOKE = 2
KIND_RELEASE = 3

_HEADER = struct.Struct(">BBIH")  # magic, kind, lsn, body length
_SNAPSHOT_HEAD = struct.Struct(">QI")  # last lsn, record count
_CRC = struct.Struct(">I")


class Grant(NamedTuple):
    """One live license: who holds it and which request created it."""

    device: str
    tenant: str
    nonce_hex: str      # request nonce that minted this grant (public)
    key_digest_hex: str  # sha256 of the wrapped key blob (declassified)
    lsn: int
    shard_id: str


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`LicenseJournal.recover` replayed and dropped."""

    replayed: int
    torn_bytes_dropped: int
    live: int


def _encode_body(fields: tuple[str, ...]) -> bytes:
    parts = []
    for field in fields:
        raw = field.encode()
        parts.append(len(raw).to_bytes(2, "big"))
        parts.append(raw)
    return b"".join(parts)


# Length-prefixed fields per record kind (see _encode_body).
_KIND_FIELDS = {KIND_GRANT: 4, KIND_REVOKE: 2, KIND_RELEASE: 2}


def _fields_end(data: bytes, offset: int, n_fields: int) -> int:
    """Where ``n_fields`` length-prefixed fields starting at ``offset``
    end by their own prefixes; past ``len(data)`` when they run off
    it (a cut prefix still advances by its 2 bytes)."""
    for _ in range(n_fields):
        offset += 2 + int.from_bytes(data[offset:offset + 2], "big")
    return offset


def _decode_body(body: bytes) -> list[str] | None:
    """The record's fields, or ``None`` when a field overruns the body
    or is not UTF-8 (the caller raises; the CRC matched, so this is a
    malformed write, not a tear)."""
    fields, offset = [], 0
    while offset < len(body):
        length = int.from_bytes(body[offset:offset + 2], "big")
        offset += 2 + length
        if offset > len(body):
            return None
        try:
            fields.append(body[offset - length:offset].decode())
        except UnicodeDecodeError:
            return None
    return fields


class LicenseJournal:
    """Write-ahead issuance log for one :class:`~repro.fleet.VendorShard`."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        # The simulated durable medium: snapshot region + appended tail.
        self._snapshot = b""
        self._media = bytearray()
        self._lsn = 0
        self.live: dict[str, Grant] = {}
        self.appends = 0
        self.compactions = 0
        self.torn_drops = 0
        self.replays = 0
        self._tail_records = 0
        # True while the tail holds only grants of devices not live in
        # the snapshot, in lsn order: compact() may then append it.
        self._tail_appends = True
        self._recovered = True

    @property
    def lag(self) -> int:
        """Records appended since the last snapshot (replay debt)."""
        return self._tail_records

    @property
    def lsn(self) -> int:
        return self._lsn

    def media_bytes(self) -> bytes:
        """Everything resident on the durable medium (for the leak sweep)."""
        return self._snapshot + bytes(self._media)

    # --- the write path ---------------------------------------------------

    def _append(self, kind: int, fields: tuple[str, ...]) -> int:
        self._lsn += 1
        body = _encode_body(fields)
        frame = _HEADER.pack(_MAGIC, kind, self._lsn, len(body)) + body
        record = frame + _CRC.pack(zlib.crc32(frame))
        if _faults.PLAN is not None:
            written = _faults.PLAN.journal_append(record)
            if len(written) != len(record):
                # Torn write: the medium keeps the prefix, the shard
                # dies with the power.  Nothing in memory may reflect
                # this record — recovery decides its fate (drop).
                self._media += written
                self._lsn -= 1
                self._tail_appends = False
                raise FaultInjected(
                    f"journal torn write on shard {self.shard_id} "
                    f"(kept {len(written)}/{len(record)} bytes)")
        self._media += record
        self.appends += 1
        self._tail_records += 1
        if kind != KIND_GRANT:
            self._tail_appends = False
        return self._lsn

    # --- license state transitions ---------------------------------------

    def grant(self, device: str, tenant: str, nonce_hex: str,
              key_digest_hex: str) -> str:
        """Record a license grant; returns ``"granted"`` or ``"replay"``.

        Raises :class:`LicenseError` when the device already holds a
        live grant minted by a *different* request — the double-spend
        the fleet invariant forbids.
        """
        existing = self.live.get(device)
        if existing is not None:
            if existing.nonce_hex == nonce_hex:
                self.replays += 1
                return "replay"
            raise LicenseError(
                f"device {device!r} already holds a live license "
                f"(grant lsn {existing.lsn}) — refusing double spend")
        lsn = self._append(KIND_GRANT,
                           (device, tenant, nonce_hex, key_digest_hex))
        self.live[device] = Grant(device, tenant, nonce_hex,
                                  key_digest_hex, lsn, self.shard_id)
        return "granted"

    def revoke(self, device: str, reason: str) -> bool:
        """Kill a live grant (reconciliation, tenant revocation)."""
        if device not in self.live:
            return False
        self._append(KIND_REVOKE, (device, reason))
        del self.live[device]
        return True

    def release(self, device: str) -> bool:
        """Device voluntarily surrendered its license (re-enrollment)."""
        if device not in self.live:
            return False
        self._append(KIND_RELEASE, (device, ""))
        del self.live[device]
        return True

    # --- durability -------------------------------------------------------

    def drop_memory(self) -> None:
        """Lose the in-memory state (a crash); the medium survives and
        :meth:`recover` must run before the next :meth:`compact`."""
        self.live = {}
        self._recovered = False

    def compact(self) -> None:
        """Fold live state into the snapshot and truncate the tail."""
        if not self._recovered:
            raise ProtocolError(
                f"journal on shard {self.shard_id} lost its in-memory "
                f"state; recover() before compact()")
        if self._tail_appends:
            # Nothing left the live set since the last snapshot: its
            # records stay, and the tail's grant records follow them.
            count, kept = self._tail_records, b""
            if self._snapshot:
                count += _SNAPSHOT_HEAD.unpack_from(self._snapshot)[1]
                kept = memoryview(self._snapshot)[_SNAPSHOT_HEAD.size:]
            records = [kept, self._media]
        else:
            records = []
            for grant in sorted(self.live.values(), key=lambda g: g.lsn):
                body = _encode_body((grant.device, grant.tenant,
                                     grant.nonce_hex, grant.key_digest_hex))
                frame = _HEADER.pack(_MAGIC, KIND_GRANT, grant.lsn,
                                     len(body)) + body
                records.append(frame + _CRC.pack(zlib.crc32(frame)))
            count = len(records)
        self._snapshot = b"".join([_SNAPSHOT_HEAD.pack(self._lsn, count)]
                                  + records)
        self._media = bytearray()
        self._tail_records = 0
        self._tail_appends = True
        self.compactions += 1

    def _scan(self, data: bytes, apply) -> tuple[int, int]:
        """Fold framed records; returns (replayed, trailing bytes dropped)."""
        offset, replayed = 0, 0
        while offset < len(data):
            header = data[offset:offset + _HEADER.size]
            if len(header) < _HEADER.size:
                break  # torn tail: partial header
            magic, kind, lsn, body_len = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: bad "
                    f"magic {magic:#x} at offset {offset}")
            end = offset + _HEADER.size + body_len + _CRC.size
            if end > len(data):
                # A torn tail keeps its header whole, so the kind is
                # known and the record's own fields (and CRC) run past
                # the medium too.  Otherwise the length field is
                # corrupt and acknowledged records may follow.
                n_fields = _KIND_FIELDS.get(kind)
                if n_fields is None or _fields_end(
                        data, offset + _HEADER.size,
                        n_fields) + _CRC.size <= len(data):
                    raise ProtocolError(
                        f"journal corruption on shard {self.shard_id}: "
                        f"bad length in the record at offset {offset}")
                break
            frame = data[offset:end - _CRC.size]
            (crc,) = _CRC.unpack(data[end - _CRC.size:end])
            if crc != zlib.crc32(frame):
                # A tear never leaves a whole-length record, so a bad
                # CRC is corruption of acknowledged state wherever it
                # is, and dropping the rest would lose grants.
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: "
                    f"CRC mismatch in the record at offset {offset}")
            if kind not in _KIND_FIELDS:
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: "
                    f"unknown record kind {kind}")
            fields = _decode_body(data[offset + _HEADER.size:
                                       end - _CRC.size])
            if fields is None or len(fields) != _KIND_FIELDS[kind]:
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: "
                    f"malformed record body at offset {offset}")
            apply(kind, lsn, fields)
            replayed += 1
            offset = end
        return replayed, len(data) - offset

    def recover(self) -> RecoveryReport:
        """Rebuild in-memory state from the durable medium.

        Idempotent: recovering twice yields identical state.  A torn
        tail record is dropped from the medium (its grant was never
        acknowledged) and counted in the report.
        """
        live: dict[str, Grant] = {}
        max_lsn = 0
        tail_appends = True

        def apply(kind: int, lsn: int, fields: list[str]) -> None:
            nonlocal max_lsn
            max_lsn = max(max_lsn, lsn)
            if kind == KIND_GRANT:
                device, tenant, nonce_hex, key_digest_hex = fields
                live[device] = Grant(device, tenant, nonce_hex,
                                     key_digest_hex, lsn, self.shard_id)
            else:
                live.pop(fields[0], None)

        def apply_tail(kind: int, lsn: int, fields: list[str]) -> None:
            # compact() may append the tail only while it holds grants
            # of devices not yet live, in lsn order.
            nonlocal tail_appends
            if kind != KIND_GRANT or lsn <= max_lsn or fields[0] in live:
                tail_appends = False
            apply(kind, lsn, fields)

        if self._snapshot:
            if len(self._snapshot) < _SNAPSHOT_HEAD.size:
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: "
                    f"snapshot shorter than its header")
            max_lsn, count = _SNAPSHOT_HEAD.unpack_from(self._snapshot)
            if self._scan(self._snapshot[_SNAPSHOT_HEAD.size:],
                          apply) != (count, 0):
                raise ProtocolError(
                    f"journal corruption on shard {self.shard_id}: "
                    f"snapshot truncated")
        replayed, torn = self._scan(bytes(self._media), apply_tail)
        if torn:
            del self._media[len(self._media) - torn:]
            self.torn_drops += 1
        self.live = live
        self._recovered = True
        self._lsn = max(self._lsn, max_lsn)
        self._tail_records = replayed
        self._tail_appends = tail_appends
        return RecoveryReport(replayed=replayed, torn_bytes_dropped=torn,
                              live=len(live))
