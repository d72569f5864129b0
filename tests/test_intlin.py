"""Exact integer helpers: the deterministic primality test and the
int64 bound of the stacked lattice reduction."""

import math

import pytest

from heckelab.intlin import (in_row_lattice, is_prime,
                             reduce_rows_mod_lattice, rows_in_lattice)


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


def test_stacked_reduction_refuses_stacks_that_could_wrap_int64():
    # the A2 coroot basis ((1, -2), (0, 3)) grows a bound M + 1 by at
    # most 4 per row: entries of 2^58 pass, 2^60 is refused
    basis = ((1, -2), (0, 3))
    ok = [[2**58, -(2**58)], [-(2**58), 1]]
    assert rows_in_lattice(basis, ok).tolist() == [
        in_row_lattice(basis, v) for v in ok]
    for bad in ([[2**60, 0]], [[0, -(2**60)]], [[-(2**63), 0]]):
        with pytest.raises(OverflowError):
            reduce_rows_mod_lattice(basis, bad)
