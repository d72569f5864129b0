"""Exact integer helpers: the deterministic primality test, the int64
bound of the stacked lattice reduction, linear systems over F_q, and the
lattice rays and pivot products against the rational oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import HeckeAlgebra, build_root_datum
from heckelab.intlin import (echelon_mod, in_row_lattice, is_prime,
                             lattice_coordinates, lattice_rays,
                             prime_below_2_63, solve_mod)
from geom_oracle import frac_det, frac_lattice_rays
from test_acceptance import TABLE
from test_extweyl import README_TYPES


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


def test_is_prime_takes_numpy_integers():
    assert is_prime(np.int64(7)) and is_prime(np.uint64(2**64 - 59))
    assert not is_prime(np.int64(9)) and not is_prime(np.bool_(True))
    assert is_prime(np.int32(2**31 - 1))


def test_one_prime_rule():
    """A prime below 2^63 comes back as a Python int; anything else, a
    bool, a float, a string or a prime from 2^63 on, is refused."""
    for p in (2, 5, np.int64(7), np.uint64(2**61 - 1), 2**63 - 25):
        got = prime_below_2_63(p)
        assert type(got) is int and got == p
    for bad in (4, 0, 1, -5, 2.5, True, np.bool_(True), "5", None,
                2**64 - 59, 2**70, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime below 2\\^63"):
            prime_below_2_63(bad)


def test_stacked_reduction_refuses_stacks_that_could_wrap_int64():
    # the A2 coroot basis ((1, -2), (0, 3)) grows a bound M + 1 by at
    # most 4 per row: entries of 2^58 pass, 2^60 is refused
    basis = ((1, -2), (0, 3))
    ok = [[2**58, -(2**58)], [-(2**58), 1]]
    assert (~lattice_coordinates(basis, ok)[1].any(axis=1)).tolist() == [
        in_row_lattice(basis, v) for v in ok]
    for bad in ([[2**60, 0]], [[0, -(2**60)]], [[-(2**63), 0]]):
        with pytest.raises(OverflowError):
            lattice_coordinates(basis, bad)


def test_lattice_coordinates_by_back_substitution():
    # the A2 coroot basis ((1, -2), (0, 3)): coordinates times the basis
    # give the points back, one row per point; a point off the lattice is
    # refused
    basis = ((1, -2), (0, 3))
    pts = np.array([[1, 1], [-1, 2], [0, 0], [3, -6], [2, -1]])
    coords, rem = lattice_coordinates(basis, pts)
    assert coords.dtype == np.int64 and coords.shape == (5, 2)
    assert not rem.any() and (coords @ np.array(basis) == pts).all()
    assert coords.tolist() == [[1, 1], [-1, 0], [0, 0], [3, 0], [2, 1]]
    mixed = [[1, 0], [1, 1], [0, 1]]
    assert lattice_coordinates(basis, mixed)[1].any(axis=1).tolist() == [
        not in_row_lattice(basis, v) for v in mixed] == [True, False, True]
    assert lattice_coordinates(basis, np.zeros((0, 2)))[0].shape == (0, 2)


def test_solve_mod_a_prime():
    rows = [[1, 1], [1, -1], [2, 0]]
    assert solve_mod(rows, [3, 1, 4], 7).tolist() == [2, 1]
    assert solve_mod(rows, [3, 1, 5], 7) is None
    assert solve_mod([[2, 4]], [2], 7).tolist() == [1, 0]  # free unknown 0
    # over F_2 the same rows have rank one: x0 + x1 = 1 is consistent,
    # x0 + x1 = 1 and x0 + x1 = 0 together are not
    assert solve_mod(rows, [1, 1, 0], 2).tolist() == [1, 0]
    assert solve_mod(rows, [1, 0, 0], 2) is None
    assert solve_mod([[3, 1], [1, 2]], [1, 0], 7).tolist() == [6, 4]
    # negative entries reduce into [0, q)
    assert solve_mod([[1, 0], [0, -1]], [-1, 2], 7).tolist() == [6, 5]


def test_echelon_mod_a_prime():
    q = 33554393

    def rank(a, q):
        return len(echelon_mod(np.array(a, dtype=np.int64), q))

    assert rank([[0, 1, 2], [0, 2, 4], [1, 0, 0], [1, 1, 2]], 7) == 2
    assert rank(np.zeros((3, 3)), 7) == 0
    assert rank(np.eye(4), q) == 4
    # rank drops mod 7 only: 7 divides the determinant 14
    assert rank([[3, 1], [1, 5]], q) == 2 and rank([[3, 1], [1, 5]], 7) == 1
    # entries near q multiply past 2^50 without wrapping
    assert rank([[q - 1, q - 2], [q - 2, q - 3]], q) == 2
    assert rank([[q - 1, q - 1], [1, 1]], q) == 1
    # the rows are in reduced echelon form, each pivot 1 and alone in
    # its column
    rows = echelon_mod(np.array([[0, 2, 4], [3, 1, 1], [3, 3, 5]]), 7)
    assert rows.tolist() == [[1, 0, 2], [0, 1, 2]]


def _readme_bases():
    """Every square echelon basis of the README data: the lattice, coroot
    and effective bases over the coweight and coroot lattices, with unit
    weights and with the weights of the acceptance table."""
    data = [build_root_datum(kind, rank, lattice=lattice)
            for kind, rank in README_TYPES
            for lattice in ("coweight", "coroot")]
    data += [build_root_datum(kind, rank, weights=w)
             for kind, rank, w, _, _ in TABLE]
    bases = set()
    for d in data:
        bases |= {d.lattice_basis, d.coroot_basis,
                  tuple(HeckeAlgebra(d).effective_basis)}
    return sorted(bases)


def test_lattice_rays_and_det_match_rational_oracle_on_readme_bases():
    bases = _readme_bases()
    assert len(bases) > 60
    for basis in bases:
        n = len(basis)
        assert all(len(row) == n and row[i] > 0 and not any(row[:i])
                   for i, row in enumerate(basis)), basis
        assert lattice_rays(basis) == frac_lattice_rays(basis), basis
        assert frac_det(basis) == math.prod(
            row[i] for i, row in enumerate(basis)), basis


@st.composite
def triangular_bases(draw):
    """A square upper-triangular integer basis with positive pivots."""
    n = draw(st.integers(1, 8))
    return tuple(tuple(
        0 if j < i else draw(st.integers(1, 12) if j == i
                             else st.integers(-30, 30))
        for j in range(n)) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(triangular_bases())
def test_lattice_rays_match_rational_oracle_on_triangular_bases(basis):
    rays = lattice_rays(basis)
    assert rays == frac_lattice_rays(basis)
    # the pivot of row i divides a_i, and a_i e_i lies in the lattice
    for i, a in enumerate(rays):
        assert a % basis[i][i] == 0
        ray = [a * int(j == i) for j in range(len(basis))]
        assert in_row_lattice(basis, ray)
