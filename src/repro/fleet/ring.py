"""Consistent-hash ring with virtual nodes for shard routing.

Each shard owns ``vnodes`` points on a 64-bit ring (SHA-256 of
``shard-id#replica``, truncated); a device key routes to the first
shard point clockwise from the key's own hash.  Adding or removing one
shard therefore remaps only the keys that fall between the changed
points — ~1/N of the population — and every remapped key moves to (or
from) exactly the changed shard.  Both properties are pinned by
Hypothesis tests (``tests/test_fleet_ring.py``).

Key positions are a pure function of the key bytes, so the fleet
fabricates them once per device in bulk
(:func:`repro.crypto.sha256_many`) rather than hashing per lookup.
"""

from __future__ import annotations

import bisect

from repro.crypto.sha256 import sha256, sha256_many
from repro.errors import ReproError

__all__ = ["HashRing", "key_position", "key_positions"]

_POSITION_BYTES = 8  # 64-bit ring


def key_position(key: str) -> int:
    """Ring position of an arbitrary key (devices, tenants...)."""
    return int.from_bytes(sha256(key.encode())[:_POSITION_BYTES], "big")


def key_positions(keys) -> list[int]:
    """Batched :func:`key_position` for fleet fabrication."""
    return [int.from_bytes(digest[:_POSITION_BYTES], "big")
            for digest in sha256_many([k.encode() for k in keys])]


class HashRing:
    """Shard id -> ring points; lookups by key or precomputed position."""

    def __init__(self, shard_ids=(), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ReproError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[tuple[int, str]] = []  # sorted (position, shard)
        self._positions: list[int] = []
        self._shards: set[str] = set()
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def _vnode_points(self, shard_id: str) -> list[int]:
        labels = [f"ring|{shard_id}#{replica}".encode()
                  for replica in range(self.vnodes)]
        return [int.from_bytes(digest[:_POSITION_BYTES], "big")
                for digest in sha256_many(labels)]

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ReproError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        for position in self._vnode_points(shard_id):
            index = bisect.bisect(self._positions, position)
            self._positions.insert(index, position)
            self._points.insert(index, (position, shard_id))

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ReproError(f"shard {shard_id!r} not on the ring")
        self._shards.discard(shard_id)
        keep = [(pos, sid) for pos, sid in self._points if sid != shard_id]
        self._points = keep
        self._positions = [pos for pos, _ in keep]

    def owner_at(self, position: int) -> str:
        """Owning shard for a precomputed ring position."""
        if not self._points:
            raise ReproError("hash ring is empty")
        index = bisect.bisect(self._positions, position)
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._points[index][1]

    def owner(self, key: str) -> str:
        return self.owner_at(key_position(key))

    def preference_at(self, position: int, count: int) -> list[str]:
        """Up to ``count`` distinct shards clockwise from ``position``.

        The first entry is the owner; the rest are the failover order a
        director walks when the owner is down.
        """
        if not self._points:
            raise ReproError("hash ring is empty")
        count = min(count, len(self._shards))
        start = bisect.bisect(self._positions, position)
        found: list[str] = []
        for offset in range(len(self._points)):
            shard_id = self._points[(start + offset) % len(self._points)][1]
            if shard_id not in found:
                found.append(shard_id)
                if len(found) == count:
                    break
        return found

    def preference(self, key: str, count: int) -> list[str]:
        return self.preference_at(key_position(key), count)
