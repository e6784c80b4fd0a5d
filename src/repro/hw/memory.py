"""Physical memory, memory map, and the TrustZone Address Space Controller.

The TZASC is the security-critical piece: it filters every bus
transaction by (world, core) against per-region policies.  SANCTUARY's
isolation guarantee is exactly a TZASC configuration that binds an
enclave's memory region to one CPU core (paper §III-B), so all the
attack tests in :mod:`repro.attacks` ultimately exercise this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import MemoryAccessError
from repro.faults import hooks as _faults

__all__ = [
    "World", "AccessType", "RegionPolicy", "MemoryRegion",
    "PhysicalMemory", "Tzasc",
]

_PAGE = 4096


class World(enum.Enum):
    """Security state of a bus master issuing a transaction."""

    NORMAL = "normal"
    SECURE = "secure"


class AccessType(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class RegionPolicy:
    """Access policy for one TZASC region.

    ``secure_only``    — only secure-world masters may access.
    ``bound_core``     — if set, only this core id may access (the
                         SANCTUARY binding); ``None`` means any core.
    ``dma_allowed``    — whether non-CPU masters (DMA engines) may access.
    """

    secure_only: bool = False
    bound_core: int | None = None
    dma_allowed: bool = True


@dataclass(frozen=True)
class MemoryRegion:
    """A named, contiguous physical address range."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.base < other.end and other.base < self.end


class PhysicalMemory:
    """Sparse byte-addressable physical memory (page-granular backing).

    The HiKey 960 has 3 GB of DRAM; backing pages are allocated lazily
    so the simulation never materializes unused address space.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryAccessError("memory size must be positive")
        self.size = size
        # Page backing is either a private bytearray or, after pin(), a
        # writable memoryview slice of one contiguous pinned buffer.
        self._pages: dict[int, bytearray | memoryview] = {}
        self._pins: dict[tuple[int, int], bytearray] = {}

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise MemoryAccessError(
                f"physical access [{address:#x}, {address + length:#x}) "
                f"outside DRAM of size {self.size:#x}"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes (no security filtering)."""
        self._check_range(address, length)
        out = bytearray(length)
        offset = 0
        while offset < length:
            page_index, page_offset = divmod(address + offset, _PAGE)
            chunk = min(length - offset, _PAGE - page_offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[offset:offset + chunk] = page[page_offset:page_offset + chunk]
            offset += chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes (no security filtering)."""
        self._check_range(address, len(data))
        offset = 0
        while offset < len(data):
            page_index, page_offset = divmod(address + offset, _PAGE)
            chunk = min(len(data) - offset, _PAGE - page_offset)
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_index] = page
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            offset += chunk

    def pin(self, address: int, length: int) -> memoryview:
        """Back ``[address, address + length)`` with one contiguous buffer.

        Zero-copy shared-memory rings need a stable host buffer that
        numpy arrays can alias, while the page-sparse ``read``/``write``/
        ``scrub`` paths must keep seeing the same bytes.  ``pin``
        replaces the covered pages' backing with writable views of a
        single buffer (preserving current contents) and returns a
        memoryview of exactly the requested range.  Bus traffic and raw
        accesses stay fully coherent with mapped views afterwards.

        Re-pinning the identical page range returns a view of the same
        buffer (so both ends of a ring can map it); a partially
        overlapping pin is refused.
        """
        self._check_range(address, length)
        if length <= 0:
            raise MemoryAccessError("pin length must be positive")
        first, last = address // _PAGE, (address + length - 1) // _PAGE
        start = address - first * _PAGE
        for (f, l), buf in self._pins.items():
            if first <= l and f <= last:
                if (f, l) == (first, last):
                    return memoryview(buf)[start:start + length]
                raise MemoryAccessError(
                    f"pin [{address:#x}, {address + length:#x}) overlaps "
                    "an existing pinned window")
        buf = bytearray((last - first + 1) * _PAGE)
        view = memoryview(buf)
        for index in range(first, last + 1):
            offset = (index - first) * _PAGE
            page = self._pages.get(index)
            if page is not None:
                view[offset:offset + _PAGE] = page
            self._pages[index] = view[offset:offset + _PAGE]
        self._pins[(first, last)] = buf
        return view[start:start + length]

    def scrub(self, address: int, length: int) -> None:
        """Zeroize a range (used at enclave teardown).

        A ``memory.scrub``/``skip`` fault models the zeroization
        silently failing; callers that guarantee fail-closed behavior
        must verify by read-back (see ``EnclaveInstance.teardown``).
        """
        if _faults.PLAN is not None:
            if not _faults.PLAN.memory_scrub(address, length):
                return
        self.write(address, b"\x00" * length)

    @property
    def resident_bytes(self) -> int:
        """Bytes of host memory actually backing the address space."""
        return len(self._pages) * _PAGE

    def resident_runs(self) -> list[tuple[int, int]]:
        """Contiguous resident spans as sorted (address, length) pairs.

        Only memory that was ever written is resident, so auditors (the
        sanitizer's teardown leak sweep) can sweep the whole address
        space without materializing 3 GB of zeros.
        """
        if not self._pages:
            return []
        runs: list[tuple[int, int]] = []
        indices = sorted(self._pages)
        start = prev = indices[0]
        for index in indices[1:]:
            if index != prev + 1:
                runs.append((start * _PAGE, (prev - start + 1) * _PAGE))
                start = index
            prev = index
        runs.append((start * _PAGE, (prev - start + 1) * _PAGE))
        return runs


class Tzasc:
    """TrustZone Address Space Controller: region-based access filter.

    Regions are configured by the secure world only (enforced by the
    caller — the secure monitor).  Every bus transaction is checked with
    :meth:`check`; violations raise :class:`MemoryAccessError`, which the
    simulation treats as the hardware bus error a real TZASC raises.
    """

    def __init__(self) -> None:
        self._policies: dict[str, tuple[MemoryRegion, RegionPolicy]] = {}

    def configure(self, region: MemoryRegion, policy: RegionPolicy) -> None:
        """Install or replace the policy for ``region``.

        Overlapping differently-named regions are rejected: a real TZASC
        resolves overlaps by region priority, but SANCTUARY never relies
        on that, so the simulation forbids the ambiguity outright.
        """
        for name, (existing, _) in self._policies.items():
            if name != region.name and existing.overlaps(region):
                raise MemoryAccessError(
                    f"region {region.name!r} overlaps {name!r}"
                )
        self._policies[region.name] = (region, policy)

    def remove(self, name: str) -> None:
        """Drop a region policy (memory becomes openly accessible)."""
        self._policies.pop(name, None)

    def policy_for(self, name: str) -> RegionPolicy | None:
        entry = self._policies.get(name)
        return entry[1] if entry else None

    def region(self, name: str) -> MemoryRegion | None:
        entry = self._policies.get(name)
        return entry[0] if entry else None

    def regions(self) -> list[tuple[MemoryRegion, RegionPolicy]]:
        """All configured (region, policy) pairs, sorted by base address."""
        return sorted(self._policies.values(), key=lambda rp: rp[0].base)

    def check(self, address: int, length: int, world: World,
              core_id: int | None, access: AccessType,
              is_dma: bool = False) -> None:
        """Filter one transaction; raise on any policy violation.

        ``core_id`` is ``None`` for non-CPU masters (DMA engines).
        A transaction that straddles a region boundary is checked against
        every region it touches.
        """
        for region, policy in self._policies.values():
            if region.base >= address + length or region.end <= address:
                continue
            if policy.secure_only and world is not World.SECURE:
                raise MemoryAccessError(
                    f"{access.value} of secure-only region {region.name!r} "
                    f"from {world.value} world"
                )
            if is_dma and not policy.dma_allowed:
                raise MemoryAccessError(
                    f"DMA {access.value} blocked for region {region.name!r}"
                )
            if policy.bound_core is not None and not is_dma:
                if world is World.SECURE:
                    # The secure world retains access for attestation and
                    # trusted-IO copies (paper §III-B).
                    continue
                if core_id != policy.bound_core:
                    raise MemoryAccessError(
                        f"{access.value} of core-bound region {region.name!r} "
                        f"from core {core_id} (bound to {policy.bound_core})"
                    )
