"""SANCTUARY: user-space enclaves on TrustZone (NDSS'19), simulated.

Provides the primitives OMG builds on: two-way-isolated SANCTUARY Apps
bound to a dedicated core via the TZASC, measured boot with signed
attestation reports, shared-memory channels to the OS and secure world,
and the suspend/resume core reallocation used in the operation phase.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "attestation": ["AttestationReport", "measure", "verify_report"],
    "enclave": ["EnclaveContext", "SanctuaryApp"],
    "library": ["SL_IMAGE", "Allocation", "SlHeap"],
    "lifecycle": ["EnclaveInstance", "EnclaveState", "LifecycleCosts",
                  "SanctuaryRuntime"],
    "shm": ["MessageQueue", "SharedRegion"],
})
