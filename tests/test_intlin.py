"""Exact integer helpers: the deterministic primality test."""

import math

import pytest

from heckelab.intlin import is_prime


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert [n for n in range(20000) if is_prime(n) != trial(n)] == []


def test_is_prime_on_pseudoprimes_and_large_primes():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7,
    # 3825123056546413051 to every prime base up to 23
    for n in (3215031751, 3825123056546413051, 1009**2, 2**61 + 1):
        assert not is_prime(n), n
    for p in (2**61 - 1, 2**63 - 25, 2**64 - 59, 2**31 - 1, 37, 41):
        assert is_prime(p), p
    for x in (True, 2.0, -7, 0, 1, "7"):
        assert not is_prime(x), x
    # the least strong pseudoprime to all twelve bases is out of range
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)
