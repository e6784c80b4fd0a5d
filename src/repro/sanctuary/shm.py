"""Shared memory channels between an SA, the commodity OS, and the
secure world.

Paper §III-B: "Besides the isolated memory, additional memory regions
are shared with the commodity OS and the secure world, which allows the
SA to access the secure world and (untrusted) OS services."  The OS
channel is untrusted I/O (Fig. 2 dashed arrows); the secure-world
channel carries trusted I/O such as microphone data.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import MemoryAccessError
from repro.faults import hooks as _faults
from repro.sanitizers import hooks as _sanitizers
from repro.hw.memory import AccessType, MemoryRegion, World
from repro.hw.soc import Soc

__all__ = ["SharedRegion", "MessageQueue", "SlotRing"]


class SharedRegion:
    """A window onto one TZASC region with fixed access attributes.

    A :class:`SharedRegion` is how a component addresses a region *as
    itself*: the world/core attribution is fixed at construction, so an
    SA handle writes with its bound core and an OS handle writes as the
    normal world — the bus still enforces policy on every access.
    """

    def __init__(self, soc: Soc, region: MemoryRegion,
                 world: World, core_id: int | None) -> None:
        self._soc = soc
        self.region = region
        self._world = world
        self._core_id = core_id

    def with_attribution(self, world: World, core_id: int | None) -> "SharedRegion":
        """The same region viewed by a different master."""
        return SharedRegion(self._soc, self.region, world, core_id)

    def _charge_copy(self, num_bytes: int) -> None:
        cycles = num_bytes * self._soc.profile.cycles_per_shm_byte
        self._soc.clock.advance_cycles(int(cycles), self._soc.fastest_core_hz())

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > self.region.size:
            raise MemoryAccessError(
                f"read [{offset}, {offset + length}) outside region "
                f"{self.region.name!r} of size {self.region.size}"
            )
        self._charge_copy(length)
        return self._soc.bus.read(self.region.base + offset, length,
                                  self._world, self._core_id)

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.region.size:
            raise MemoryAccessError(
                f"write [{offset}, {offset + len(data)}) outside region "
                f"{self.region.name!r} of size {self.region.size}"
            )
        self._charge_copy(len(data))
        self._soc.bus.write(self.region.base + offset, data,
                            self._world, self._core_id)

    def charge_copy(self, num_bytes: int) -> None:
        """Public alias for the per-byte copy charge (ring commits)."""
        self._charge_copy(num_bytes)

    def map(self, offset: int, length: int) -> np.ndarray:
        """Map a window of the region as a writable numpy uint8 view.

        The TZASC policy is checked once at map time with this view's
        world/core attribution (both directions — a mapping is a
        read/write aperture); afterwards accesses through the returned
        array bypass the bus, which is exactly the zero-copy contract:
        no per-access charge, no per-access filtering.  Callers must
        only map regions whose policy is stable for the mapping's
        lifetime (the serving rings live in an open OS-shared region).
        Raw bus reads/writes/scrubs stay coherent with the view.
        """
        if offset < 0 or offset + length > self.region.size:
            raise MemoryAccessError(
                f"map [{offset}, {offset + length}) outside region "
                f"{self.region.name!r} of size {self.region.size}"
            )
        base = self.region.base + offset
        for access in (AccessType.READ, AccessType.WRITE):
            self._soc.tzasc.check(base, length, self._world,
                                  self._core_id, access)
        return np.frombuffer(self._soc.memory.pin(base, length),
                             dtype=np.uint8)

    @property
    def size(self) -> int:
        return self.region.size


class MessageQueue:
    """A tiny one-slot mailbox protocol on top of a shared region.

    Layout: ``[4-byte flag][4-byte length][payload]``.  Flag 0 = empty,
    1 = full.  This is how the OS front-end app and the SA exchange
    requests/responses over untrusted shared memory.
    """

    _HEADER = 8

    def __init__(self, shm: SharedRegion) -> None:
        self._shm = shm

    @property
    def capacity(self) -> int:
        return self._shm.size - self._HEADER

    def try_send(self, payload: bytes) -> bool:
        """Post a message if the slot is empty; return success."""
        if len(payload) > self.capacity:
            raise MemoryAccessError(
                f"message of {len(payload)} bytes exceeds queue capacity "
                f"{self.capacity}"
            )
        flag = struct.unpack("<I", self._shm.read(0, 4))[0]
        if flag != 0:
            return False
        self._shm.write(4, struct.pack("<I", len(payload)))
        self._shm.write(self._HEADER, payload)
        self._shm.write(0, struct.pack("<I", 1))
        return True

    def try_receive(self) -> bytes | None:
        """Take the pending message if any; clears the slot."""
        flag = struct.unpack("<I", self._shm.read(0, 4))[0]
        if flag == 0:
            return None
        length = struct.unpack("<I", self._shm.read(4, 4))[0]
        payload = self._shm.read(self._HEADER, length)
        self._shm.write(0, struct.pack("<I", 0))
        return payload

    def view_for(self, world: World, core_id: int | None) -> "MessageQueue":
        """The same queue as seen by another master."""
        return MessageQueue(self._shm.with_attribution(world, core_id))


class SlotRing:
    """Zero-copy SPSC ring of fixed-size message slots.

    Replaces the mailbox's allocate-and-copy round trips for serving
    traffic.  The ring lives inside a pinned window of one shared
    region; the producer writes payloads *in place* into a reserved
    slot, the consumer reads them *in place* from a peeked slot, so the
    only simulated cost is the producer's commit charge (the bytes do
    cross the interconnect once) — no second copy on the consumer side
    and no per-message heap allocation on either.

    Layout::

        [head u32][tail u32]            # control block, 8 bytes
        slot 0: [length u32][payload]   # stride = 4 + slot_bytes, 4-aligned
        slot 1: ...

    ``head`` is advanced only by the consumer, ``tail`` only by the
    producer — the classic single-producer/single-consumer discipline,
    which is what makes in-place access safe without locks.  One slot
    is sacrificed to distinguish full from empty.

    Both endpoints build their own :class:`SlotRing` over the same
    ``(region, offset)`` window with their own attribution; pinning the
    identical range twice aliases the same host buffer, so the two
    views are coherent by construction.
    """

    _CTRL = 8

    def __init__(self, shm: SharedRegion, offset: int, num_slots: int,
                 slot_bytes: int, reset: bool = False) -> None:
        if num_slots < 2:
            raise MemoryAccessError("SlotRing needs at least 2 slots")
        if slot_bytes <= 0:
            raise MemoryAccessError("slot payload size must be positive")
        self._shm = shm
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        # 4-align each slot so the length prefix u32 views stay aligned.
        self._stride = 4 + ((slot_bytes + 3) & ~3)
        total = self._CTRL + num_slots * self._stride
        window = shm.map(offset, total)
        self._ctrl = window[:self._CTRL].view(np.uint32)
        self._slots = window[self._CTRL:]
        if reset:
            self._ctrl[:] = 0

    @classmethod
    def bytes_needed(cls, num_slots: int, slot_bytes: int) -> int:
        return cls._CTRL + num_slots * (4 + ((slot_bytes + 3) & ~3))

    def __len__(self) -> int:
        head = int(self._ctrl[0])
        tail = int(self._ctrl[1])
        return (tail - head) % self.num_slots

    def _slot(self, index: int) -> np.ndarray:
        start = index * self._stride
        return self._slots[start:start + self._stride]

    # --- producer side -------------------------------------------------

    def try_reserve(self) -> np.ndarray | None:
        """Next free slot's payload view, or ``None`` when full.

        The caller writes (or seals) the message directly into the
        returned view, then calls :meth:`commit`.  A ``ring.reserve``
        stall fault makes the ring report full for this reservation —
        producers must treat ``None`` as backpressure (shed or retry),
        exactly as they would a genuinely full ring.
        """
        if _faults.PLAN is not None and _faults.PLAN.ring_stall():
            if _sanitizers.STATE is not None:
                _sanitizers.STATE.rings.on_reserve(self, ok=False)
            return None
        head = int(self._ctrl[0])
        tail = int(self._ctrl[1])
        if (tail + 1) % self.num_slots == head:
            if _sanitizers.STATE is not None:
                _sanitizers.STATE.rings.on_reserve(self, ok=False)
            return None
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.rings.on_reserve(self, ok=True)
        return self._slot(tail)[4:4 + self.slot_bytes]

    def commit(self, length: int) -> None:
        """Publish the reserved slot with ``length`` payload bytes."""
        if not 0 <= length <= self.slot_bytes:
            raise MemoryAccessError(
                f"commit length {length} outside [0, {self.slot_bytes}]")
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.rings.on_commit(self)
        tail = int(self._ctrl[1])
        self._slot(tail)[:4].view(np.uint32)[0] = length
        # The payload does cross the interconnect once; charge it here
        # (header + payload), the consumer side is free.
        self._shm.charge_copy(4 + length)
        self._ctrl[1] = (tail + 1) % self.num_slots

    # --- consumer side -------------------------------------------------

    def try_peek(self) -> np.ndarray | None:
        """Oldest pending payload view, or ``None`` when empty.

        The view aliases ring memory: the consumer opens/parses in
        place and must finish (or copy out) before :meth:`release`.
        """
        head = int(self._ctrl[0])
        tail = int(self._ctrl[1])
        if head == tail:
            if _sanitizers.STATE is not None:
                _sanitizers.STATE.rings.on_peek(self, ok=False)
            return None
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.rings.on_peek(self, ok=True)
        slot = self._slot(head)
        length = int(slot[:4].view(np.uint32)[0])
        return slot[4:4 + length]

    def release(self) -> None:
        """Retire the slot last returned by :meth:`try_peek`."""
        head = int(self._ctrl[0])
        if head == int(self._ctrl[1]):
            raise MemoryAccessError("release() on an empty ring")
        if _sanitizers.STATE is not None:
            _sanitizers.STATE.rings.on_release(self)
        self._ctrl[0] = (head + 1) % self.num_slots
