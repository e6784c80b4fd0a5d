"""PRIME+PROBE side channel: leaks on shared L2, closed by exclusion."""

import pytest

from repro.attacks.cache_probe import PrimeProbeAttack, PrimeProbeResult

SECRET = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0,
          1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1]


@pytest.fixture(scope="module")
def shared_result():
    return PrimeProbeAttack(l2_excluded=False).run(SECRET)


@pytest.fixture(scope="module")
def excluded_result():
    return PrimeProbeAttack(l2_excluded=True).run(SECRET)


def test_shared_l2_leaks_the_secret(shared_result):
    """Without partitioning, the attacker recovers every bit."""
    assert shared_result.accuracy == 1.0
    assert shared_result.leaked
    assert shared_result.evictions_observed > 0


def test_l2_exclusion_closes_the_channel(excluded_result):
    """§III-B: excluding enclave memory from L2 kills the channel."""
    assert excluded_result.evictions_observed == 0
    assert excluded_result.accuracy == 0.0
    assert not excluded_result.leaked


def test_attack_is_deterministic():
    a = PrimeProbeAttack(l2_excluded=False).run(SECRET[:4])
    b = PrimeProbeAttack(l2_excluded=False).run(SECRET[:4])
    assert a == b


def test_result_properties():
    empty = PrimeProbeResult(trials=0, correct_guesses=0,
                             evictions_observed=0)
    assert empty.accuracy == 0.0
    assert not empty.leaked
    small = PrimeProbeResult(trials=4, correct_guesses=4,
                             evictions_observed=10)
    assert small.accuracy == 1.0
    assert not small.leaked  # too few trials to claim leakage


def test_single_bit_recovery_both_values():
    for bit in (0, 1):
        result = PrimeProbeAttack(l2_excluded=False).run([bit])
        assert result.correct_guesses == 1, f"failed for bit {bit}"
