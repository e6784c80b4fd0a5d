"""Comparison baselines: unprotected native execution, cryptographic
alternatives (HE/SMPC cost models), and the online-TEE deployment."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "crypto_baselines": ["BaselineEstimate", "HeCostModel", "SmpcCostModel",
                         "interactive_layers"],
    "native": ["NativeKeywordSpotter"],
    "voiceguard": ["TYPICAL_NETWORKS", "NetworkCondition", "VoiceGuardModel"],
})
