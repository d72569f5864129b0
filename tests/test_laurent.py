"""Arithmetic in the coefficient ring $\\mathbb{Z}[v, v^{-1}]$."""

import random
from fractions import Fraction

import numpy as np
import pytest

from heckelab import Laurent, LaurentMatrix, NegativePowersPresent, q_power
from geom_oracle import digit_unpack


def test_ring_identities():
    one = Laurent.one()
    v = Laurent.v(1)
    assert (one + v) * (one - v) == one - Laurent.v(2)
    assert v * Laurent.v(-1) == one
    assert (one + v) ** 3 == one + 3 * v + 3 * Laurent.v(2) + Laurent.v(3)
    assert Laurent.zero().is_zero()
    assert not one.is_zero()
    assert -(one - v) == v - one


def test_random_arithmetic_against_integer_evaluation():
    # evaluating at v=3 is a ring homomorphism, so it must commute
    # with every operation we perform symbolically (exact rationals,
    # since negative exponents appear)
    rng = random.Random(7)
    pt = Fraction(3)

    def rand_poly():
        return sum(
            (Laurent.of_int(rng.randint(-4, 4)) * Laurent.v(rng.randint(-3, 3))
             for _ in range(4)),
            Laurent.zero(),
        )

    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        av, bv = a.evaluate(pt), b.evaluate(pt)
        assert (a + b).evaluate(pt) == av + bv
        assert (a * b).evaluate(pt) == av * bv
        assert (a - b).evaluate(pt) == av - bv


def test_integer_scalars():
    """Every integer that is not a bool multiplies, numpy integers
    included, with Python int coefficients; anything else raises
    ``TypeError``."""
    x = Laurent({-1: 2, 3: -1})
    for n in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert x * n == Laurent({-1: 6, 3: -3}) == n * x
        assert all(type(a) is int for a in (x * n).c.values())
    assert Laurent.one() * np.int64(3) == Laurent.of_int(3)
    assert (x * 0).is_zero() and (x * np.int64(0)).is_zero()
    for bad in (True, False, 2.0, np.float64(2), Fraction(2), "2", None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x


def test_subtraction_in_one_pass():
    rng = random.Random(11)

    def rand_poly():
        return Laurent({rng.randint(-4, 4): rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 5))})

    for _ in range(200):
        x, y = rand_poly(), rand_poly()
        assert (x - y).c == (x + (-y)).c
    x = Laurent({-2: 5, 0: -1, 3: 7})
    diff = x - Laurent({-2: 5, 0: -1, 3: 7})
    assert diff.c == {}
    assert diff == Laurent.zero() and hash(diff) == hash(Laurent.zero())
    assert (x - Laurent({3: 7})).c == {-2: 5, 0: -1}


def test_exponent_queries():
    x = Laurent.v(-2) + Laurent.of_int(5)
    assert x.min_exp() == -2
    assert x.has_negative_exponents()
    assert x.coeff(-2) == 1
    assert x.coeff(17) == 0
    assert x.constant_term() == 5
    assert x.shift(2) == Laurent.one() + 5 * Laurent.v(2)


def test_q_power_is_even():
    for d in range(5):
        assert q_power(d) == Laurent.v(2 * d)
        assert q_power(d).only_even_exponents()
    assert not Laurent.v(1).only_even_exponents()


def test_specialization_at_v0():
    assert (Laurent.of_int(5) + Laurent.v(1)).at_v0() == 5
    assert Laurent.zero().at_v0() == 0
    try:
        (Laurent.v(-1) + Laurent.one()).at_v0()
    except NegativePowersPresent:
        pass
    else:
        raise AssertionError("expected NegativePowersPresent")


def test_constants_hash_as_their_integers():
    """A constant polynomial equals its integer and hashes as it, zero as
    0, so a set or a dict does not tell them apart."""
    assert len({Laurent.one(), 1}) == 1
    for n in (0, 1, -1, 7, 2**70):
        assert Laurent.of_int(n) == n and hash(Laurent.of_int(n)) == hash(n)
    assert hash(Laurent.zero()) == 0
    assert {Laurent.of_int(3): "three"}[3] == "three"
    assert hash(Laurent.v()) == hash(Laurent.v())


def test_packing_is_a_ring_map():
    """Packing at $v = 2^b$ (Kronecker substitution) unpacks to the same
    polynomial and takes sums, products and shifts to integer sums,
    products and left shifts, while every coefficient stays below
    $2^{b-1}$ in absolute value."""
    rng = random.Random(5)
    for _ in range(200):
        a, c = (Laurent({rng.randint(-9, 9): rng.randint(-2**40, 2**40)
                         for _ in range(rng.randint(0, 5))})
                for _ in range(2))
        b = (a.norm1() * c.norm1() + a.norm1() + c.norm1() + 1
             ).bit_length() + 1
        lo_a, lo_c = a.min_exp() - 1, c.min_exp()
        pa, pc = a.pack(b, lo_a), c.pack(b, lo_c)
        assert Laurent.unpack(pa, b, lo_a) == a
        assert Laurent.unpack(pa * pc, b, lo_a + lo_c) == a * c
        assert Laurent.unpack(pa << 3 * b, b, lo_a) == a.shift(3)
        lo = min(lo_a, lo_c)
        assert Laurent.unpack(a.pack(b, lo) - c.pack(b, lo), b, lo) == a - c
    assert Laurent.unpack(0, 8, -4).is_zero()
    with pytest.raises(ValueError):
        Laurent.unpack(1, 1, 0)
    assert Laurent.unpack(Laurent({0: -127, 1: 127}).pack(8, 0), 8, 0) == (
        Laurent({0: -127, 1: 127}))


def test_unpack_matches_digit_loop():
    """Unpacking that skips runs of zero digits gives the digits of the
    loop over every digit, on random ints of either sign up to 4000 bits,
    on sparse ones whose few digits lie far apart, and on ints with
    trailing zero bits at and around multiples of the slot width."""
    rng = random.Random(27)
    for _ in range(600):
        b = rng.randint(2, 80)
        lo = rng.randint(-50, 50)
        dense = rng.getrandbits(rng.randint(1, 4000))
        sparse = sum(rng.randint(-(1 << b - 1), (1 << b - 1) - 1)
                     << b * rng.randint(0, 60) for _ in range(3))
        edge = (2 * rng.getrandbits(b) + 1) << max(
            b * rng.randint(0, 40) + rng.randint(-1, 1), 0)
        for p in (dense, -dense, sparse, -sparse, edge, -edge,
                  1 << 4000, -(1 << 4000)):
            assert Laurent.unpack(p, b, lo) == digit_unpack(p, b, lo)


def test_bad_input_is_refused_not_coerced():
    # a float, a bool or a string was once truncated or read as an int
    for bad in ({0: 2.5}, {1.7: 3}, {0: True}, {True: 1}, {0: "2"},
                {"1": 1}, {0: np.float64(2)}, {None: 1}):
        with pytest.raises(TypeError):
            Laurent(bad)
    for call in (lambda: Laurent.v(2.9), lambda: Laurent.of_int(True),
                 lambda: Laurent.monomial(1, 0.5), lambda: q_power(1.5)):
        with pytest.raises(TypeError):
            call()
    # numpy integers stay valid and are stored as Python ints
    x = Laurent({np.int64(2): np.int32(3), 0: np.uint8(0)})
    assert x == 3 * Laurent.v(2) and x.c == {2: 3}
    assert all(type(k) is int and type(a) is int for k, a in x.c.items())


def _lmul(a, b):
    """Entry-by-entry product of matrices of ``Laurent``, the reference."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Laurent.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def _entries(m: LaurentMatrix, k: int):
    n, c = m.coeffs.shape[-2:]
    return [[m.entry(k, i, j) for j in range(c)] for i in range(n)]


def _largest(m: LaurentMatrix) -> int:
    """The largest absolute coefficient of any entry of ``m``."""
    *lead, n, c = m.coeffs.shape[:-3] + m.coeffs.shape[-2:]
    return max((abs(x) for k in np.ndindex(*lead) for i in range(n)
                for j in range(c) for _, x in m.entry(*k, i, j).items()),
               default=0)


def test_laurent_matrix_against_entrywise_laurent():
    rng = random.Random(11)

    def rand_mat(n, exps=range(-2, 4)):
        return [[Laurent({rng.choice(exps): rng.randint(-3, 3)
                          for _ in range(2)}) for _ in range(n)]
                for _ in range(n)]

    a = [rand_mat(3) for _ in range(4)]
    b = [rand_mat(3) for _ in range(4)]
    ta, tb = LaurentMatrix.from_rows(a), LaurentMatrix.from_rows(b)
    assert ta.lo < 0 and tb.lo < 0
    prod, total, both = ta @ tb, ta - tb, ta + tb
    for k in range(4):
        assert _entries(ta, k) == a[k]
        assert _entries(prod, k) == _lmul(a[k], b[k])
        assert _entries(total, k) == [[x - y for x, y in zip(ra, rb)]
                                      for ra, rb in zip(a[k], b[k])]
    assert not (ta @ LaurentMatrix.identity(3) - ta).coeffs.any()
    # one-slice factors on either side: a monomial v^-1 times a constant
    # matrix, and an all-zero slice; and factors with zero interior slices
    ones = [[[Laurent.monomial(-1, rng.randint(-3, 3)) for _ in range(3)]
             for _ in range(3)] for _ in range(4)]
    zero = [[[Laurent.zero()] * 3] * 3] * 4
    gaps = [rand_mat(3, (-3, 2)) for _ in range(4)]
    tx = [LaurentMatrix.from_rows(x) for x in (ones, zero, gaps)]
    assert [t.coeffs.shape[-3] for t in tx] == [1, 1, 6]
    assert not tx[2].coeffs[:, 1:-1].any()
    for x, t in zip((ones, zero, gaps), tx):
        for left, tl, right, tr in ((x, t, a, ta), (a, ta, x, t),
                                    (x, t, x, t)):
            got = tl @ tr
            for k in range(4):
                assert _entries(got, k) == _lmul(left[k], right[k])
            assert got.magnitude() == _largest(got)
    # a single matrix times a stack, and a stack times a single matrix:
    # the leading axes broadcast
    left, right = ta[2] @ tb, ta @ tb[1]
    for k in range(4):
        assert _entries(left, k) == _lmul(a[2], b[k])
        assert _entries(right, k) == _lmul(a[k], b[1])
    # magnitude() is the largest coefficient after every operation
    for m in (ta, tb, prod, total, both, left, right, ta[1], prod[3],
              total[1:3], prod.trim(), (ta - ta).trim(),
              LaurentMatrix.identity(3)):
        assert m.magnitude() == _largest(m)
    poly = LaurentMatrix.from_rows(
        [[[Laurent.v(1) + Laurent.of_int(4), Laurent.v(2)]]])
    assert poly.at_v0().tolist() == [[[4, 0]]]
    with pytest.raises(NegativePowersPresent):
        ta.at_v0()


def test_laurent_matrix_product_beyond_int64():
    # int64 inputs whose product has coefficients near 2^80
    big = 2**40 + 3
    a = [[Laurent({0: big, 2: -1}), Laurent.v(-1)],
         [Laurent.of_int(7), Laurent({1: -big})]]
    b = [[Laurent({-1: big}), Laurent.one()],
         [Laurent({0: 2, 3: big}), Laurent.zero()]]
    ta, tb = LaurentMatrix.from_rows([a]), LaurentMatrix.from_rows([b])
    assert ta.coeffs.dtype != object
    prod = ta @ tb
    assert _entries(prod, 0) == _lmul(a, b)
    assert max(abs(c) for row in _lmul(a, b) for x in row
               for _, c in x.items()) > 2**63
    # and again from coefficients that do not fit int64 themselves
    huge = [[Laurent({0: 3**41, 1: 1})]]
    assert _entries(LaurentMatrix.from_rows([huge]) @ LaurentMatrix.from_rows(
        [huge]), 0) == _lmul(huge, huge)


def test_concat_broadcasts_a_stack_over_family_axes():
    """A stack of k matrices joins a stack with family axes as k matrices
    repeated over every family member, for k equal to the family's
    length too, where aligning the axes from the right would pair
    matrix i with member i."""
    for members in (2, 3):
        stack = LaurentMatrix(0, np.arange(8).reshape(2, 1, 2, 2))
        family = LaurentMatrix(-1, np.ones((3, members, 2, 2, 2), np.int64))
        both = LaurentMatrix.concat([family, stack])
        assert both.lo == -1 and both.coeffs.shape == (5, members, 2, 2, 2)
        for i in range(2):
            for m in range(members):
                assert (both.coeffs[3 + i, m, 1] == stack.coeffs[i, 0]).all()
                assert not both.coeffs[3 + i, m, 0].any()
