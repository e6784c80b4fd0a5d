"""Simulated ARM SoC substrate (HiKey 960 by default).

Layers: :mod:`~repro.hw.timing` (virtual clock + calibrated costs),
:mod:`~repro.hw.memory` (DRAM + TZASC), :mod:`~repro.hw.cache`
(L1/L2 hierarchy), :mod:`~repro.hw.core` (CPU state machine),
:mod:`~repro.hw.peripherals` and :mod:`~repro.hw.bus`, assembled by
:mod:`~repro.hw.soc`.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bus": ["SystemBus"],
    "cache": ["Cache", "CacheConfig", "CacheHierarchy", "CacheStats"],
    "core": ["CoreState", "CpuCore"],
    "memory": ["AccessType", "MemoryRegion", "PhysicalMemory", "RegionPolicy",
               "Tzasc", "World"],
    "peripherals": ["FlashStorage", "Microphone", "Peripheral", "Trng"],
    "soc": ["GiB", "MiB", "Soc", "SocConfig", "make_hikey960"],
    "timing": ["DEFAULT_PROFILE", "TimingProfile", "VirtualClock"],
})
