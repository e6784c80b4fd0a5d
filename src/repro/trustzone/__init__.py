"""TrustZone layer: worlds, secure monitor, secure boot, trusted OS.

Reproduces the architecture of Fig. 1: a commodity OS in the normal
world, a small trusted OS with trusted apps in the secure world, trusted
firmware at EL3, and the TZASC-backed physical memory partitioning.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "firmware": ["BootImage", "TrustedFirmware", "sign_image"],
    "monitor": ["SecureMonitor", "SmcStats"],
    "trusted_os": ["KeyMasterTa", "PeripheralGatewayTa", "TrustedApp",
                   "TrustedOs"],
    "worlds": ["CommodityOs", "Platform", "SecureWorld", "make_platform"],
})
