"""Adversary simulations for the paper's threat model (§IV)."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "adversary": ["AttackOutcome", "NormalWorldAdversary"],
    "cache_probe": ["PrimeProbeAttack", "PrimeProbeResult"],
    "rollback": ["RollbackAttack"],
})
