"""Hecke algebra kernel: defining relations, the star basis, the sign
involution, and the Bernstein presentation."""

import random

import numpy as np
import pytest

from heckelab import (
    DatumMismatch,
    ExtWeylElt,
    HeckeAlgebra,
    Laurent,
    NotAFullOrbit,
    NotInLattice,
    build_root_datum,
    decorated_aut_group,
    dominant_monoid_generators,
    effective_lattice,
    elements_up_to_length,
)
from heckelab import intlin
from heckelab.hecke import HeckeElt

DATA = [
    ("A", 1, 1), ("A", 1, [1, 2]), ("A", 2, 1),
    ("C", 2, 1), ("C", 2, [1, 2, 3]), ("G", 2, 1), ("B", 3, [2, 1]),
]


def algebras():
    for kind, rank, w in DATA:
        yield HeckeAlgebra(build_root_datum(kind, rank, weights=w))


def supported_pool(H, max_len):
    # basis elements of the algebra: length-zero part restricted to the
    # weight-preserving symmetries
    d = H.datum
    return [om * x
            for om in decorated_aut_group(d).elements
            for x in elements_up_to_length(d, max_len)]


def eff_gens(H):
    return dominant_monoid_generators(H.datum,
                                      lattice=effective_lattice(H.datum))


def test_quadratic_relations():
    for H in algebras():
        d = H.datum
        for s in range(d.rank + 1):
            ts = H.t_word((s,))
            qs = H.q_of(ExtWeylElt.simple_reflection(d, s))
            rhs = ts.scale(qs - Laurent.one()) + H.one().scale(qs)
            assert ts * ts == rhs, (d.label(), s)


def test_braid_relations():
    for H in algebras():
        d = H.datum
        for s in range(d.rank + 1):
            for t in range(s + 1, d.rank + 1):
                m = d.coxeter_m[s][t]
                if m < 2:
                    continue  # infinite bond, nothing to check
                left = [s if i % 2 == 0 else t for i in range(m)]
                right = [t if i % 2 == 0 else s for i in range(m)]
                assert H.t_word(left) == H.t_word(right), (d.label(), s, t)


def test_products_when_lengths_add():
    rng = random.Random(23)
    for H in algebras():
        d = H.datum
        pool = supported_pool(H, 4)
        for _ in range(40):
            z = rng.choice(pool)
            omega, letters = z.reduced_word()
            k = rng.randint(0, len(letters))
            x = ExtWeylElt.from_word(d, letters[:k], omega=omega)
            y = ExtWeylElt.from_word(d, letters[k:])
            assert x.length() + y.length() == z.length()
            assert H.t(x) * H.t(y) == H.t(z)


def test_star_pairing():
    # T_w T*_{w^{-1}} is the scalar q_w
    for H in algebras():
        for w in supported_pool(H, 3):
            prod = H.t(w) * H.star_t(w.inv())
            assert prod == H.one().scale(H.q_of(w)), H.datum.label()


def test_star_t_on_generators():
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    for s in range(3):
        se = ExtWeylElt.simple_reflection(H.datum, s)
        qs = H.q_of(se)
        assert H.star_t(se) == H.t(se) - H.one().scale(qs - Laurent.one())


def test_sign_star_involution_and_homomorphism():
    rng = random.Random(31)
    for H in algebras():
        d = H.datum
        pool = supported_pool(H, 3)
        for s in range(d.rank + 1):
            se = ExtWeylElt.simple_reflection(d, s)
            qs = H.q_of(se)
            expected = H.t(se).scale(Laurent.of_int(-1)) + H.one().scale(
                qs - Laurent.one())
            assert H.sign_star(H.t(se)) == expected
        for _ in range(20):
            x, y = H.t(rng.choice(pool)), H.t(rng.choice(pool))
            assert H.sign_star(H.sign_star(x)) == x
            assert H.sign_star(x * y) == H.sign_star(x) * H.sign_star(y)
            assert H.sign_star(x + y) == H.sign_star(x) + H.sign_star(y)


def test_bernstein_on_dominant_and_antidominant():
    for H in algebras():
        d = H.datum
        for lam in eff_gens(H):
            t_lam = ExtWeylElt.translation(d, lam)
            assert H.bernstein(lam) == H.star_t(t_lam)
            neg = tuple(-x for x in lam)
            assert H.bernstein(neg) == H.t(ExtWeylElt.translation(d, neg))


def test_bernstein_shift_independence():
    # E_lambda may be computed from any pair of dominant points with
    # difference lambda; shifting the canonical pair must not change it
    rng = random.Random(41)
    for kind, rank, w in [("A", 2, 1), ("C", 2, 1), ("C", 2, [1, 2, 3])]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        d = H.datum
        gens = eff_gens(H)
        for _ in range(15):
            lam = tuple(rng.randint(-2, 2) for _ in range(rank))
            if not (d.in_lattice(lam) and H.in_effective_lattice(lam)):
                continue
            plus, minus = H.dominant_decomposition(lam)
            nu = rng.choice(gens)
            plus2 = tuple(a + b for a, b in zip(plus, nu))
            minus2 = tuple(a + b for a, b in zip(minus, nu))
            t_plus = ExtWeylElt.translation(d, plus2)
            t_minus = ExtWeylElt.translation(d, minus2)
            t_lam = ExtWeylElt.translation(d, lam)
            delta = (t_plus.weighted_length() + t_minus.weighted_length()
                     - t_lam.weighted_length())
            neg = tuple(-x for x in minus2)
            alt = (H.star_t(t_plus) * H.t(ExtWeylElt.translation(d, neg))
                   ).scale(Laurent.v(-delta))
            assert alt == H.bernstein(lam), (d.label(), lam, nu)


def test_bernstein_product_rule_and_commutativity():
    rng = random.Random(43)
    for kind, rank, w in [("A", 2, 1), ("C", 2, 1), ("G", 2, 1)]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        d = H.datum
        gens = list(eff_gens(H))
        for _ in range(10):
            lam, mu = rng.choice(gens), rng.choice(gens)
            total = tuple(a + b for a, b in zip(lam, mu))
            assert H.bernstein(lam) * H.bernstein(mu) == H.bernstein(total)
        for _ in range(10):
            lam = tuple(rng.randint(-2, 2) for _ in range(rank))
            mu = tuple(rng.randint(-2, 2) for _ in range(rank))
            e_lam, e_mu = H.bernstein(lam), H.bernstein(mu)
            assert e_lam * e_mu == e_mu * e_lam, (d.label(), lam, mu)


def test_central_elements_commute_with_generators():
    for kind, rank, w in [("A", 2, 1), ("C", 2, [1, 2, 3]), ("G", 2, 1)]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        d = H.datum
        for gen in eff_gens(H):
            z = H.central(gen)
            assert z.all_coeffs_polynomial()
            assert z.all_coeffs_even()
            for s in range(d.rank + 1):
                ts = H.t_word((s,))
                assert z * ts == ts * z, (d.label(), gen, s)
            for omega in decorated_aut_group(d).elements:
                to = H.t(omega)
                assert z * to == to * z


def test_central_equals_sum_of_bernstein_elements():
    # one product per dominant part gives the same element as one
    # Bernstein element per orbit point; A2 and B3 on the coroot lattice
    # also take the shifted split of dominant_decomposition (B3 on the
    # orbit of (0, 1, 0) only: its other orbits take about 40 s)
    shifted = {}
    a2 = HeckeAlgebra(build_root_datum("A", 2, lattice="coroot"))
    b3 = HeckeAlgebra(build_root_datum("B", 3, lattice="coroot"))
    cases = [(H, eff_gens(H)) for H in list(algebras()) + [a2]]
    cases.append((b3, [(0, 1, 0)]))
    for H, gens in cases:
        d = H.datum
        for gen in gens:
            orbit = d.weyl_orbit(gen)
            total = H.zero()
            for mu in orbit:
                total = total + H.bernstein(mu)
                plus, _ = H.dominant_decomposition(mu)
                if plus != tuple(max(x, 0) for x in mu):
                    shifted[d.label()] = shifted.get(d.label(), 0) + 1
            assert H.central(gen) == total, (d.label(), gen)
    assert shifted == {"A2": 4, "B3": 4}


def test_lattice_rays_run_once_per_basis():
    # the monoid generators and the Bernstein split of one lattice share
    # one exact inverse; 4 points of the B3 orbit of (0, 1, 0) split with
    # a shift at the coroot level, which reads the rays
    intlin.lattice_rays.cache_clear()
    H = HeckeAlgebra(build_root_datum("B", 3))
    H.monoid_generators("coroot")
    orbit = H.datum.weyl_orbit((0, 1, 0))
    plus, minus, _, _, delta = H.bernstein_split(orbit, "coroot")
    assert (plus != np.maximum(orbit, 0)).any(axis=1).sum() == 4
    assert (plus - minus == orbit).all() and (delta >= 0).all()
    info = intlin.lattice_rays.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_product_takes_one_step_per_trie_edge(monkeypatch):
    H = HeckeAlgebra(build_root_datum("A", 3))
    d = H.datum
    calls = []
    mul_basis = HeckeElt._mul_basis

    def counted(self, s, step, twisted=False):
        calls.append(s)
        return mul_basis(self, s, step, twisted)

    monkeypatch.setattr(HeckeElt, "_mul_basis", counted)
    x = H.t_word((0, 1))
    y21, y23 = (ExtWeylElt.from_word(d, w) for w in [(2, 1), (2, 3)])
    assert [y.reduced_word()[1] for y in (y21, y23)] == [(2, 1), (2, 3)]
    prod = x * (H.t(y21) + H.t(y23))
    assert sorted(calls) == [1, 2, 3]  # the prefix 2 is taken once
    assert prod == x * H.t(y21) + x * H.t(y23)
    z = ExtWeylElt.from_word(d, (1, 2, 3, 0))
    calls.clear()
    x * H.t(z)
    assert calls == list(z.reduced_word()[1])
    calls.clear()
    H.star_t(z)
    assert calls == list(z.reduced_word()[1])


def test_product_makes_no_descent_tests(monkeypatch):
    """Each step of a product reads its descent off the fused step, so
    once the right factor's reduced words are known a product makes no
    ``right_descent`` call."""
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    x, y = (H.t(ExtWeylElt.from_word(H.datum, w))
            for w in [(0, 1, 2, 1), (1, 2, 0, 1, 2)])
    for w in y.terms:
        w.reduced_word()
    calls = []
    real = ExtWeylElt.right_descent

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(ExtWeylElt, "right_descent", counted)
    prod = (x + H.one()) * y
    assert len(prod.terms) > 2 and calls == []


def test_central_from_orbit_validates():
    H = HeckeAlgebra(build_root_datum("C", 2))
    orbit = H.datum.weyl_orbit((1, 1))
    assert H.central_from_orbit(orbit) == H.central((1, 1))
    with pytest.raises(NotAFullOrbit):
        H.central_from_orbit(orbit[:-1])
    with pytest.raises(NotAFullOrbit):
        H.central_from_orbit([])


def test_lattice_guards():
    H = HeckeAlgebra(build_root_datum("A", 2, lattice="coroot"))
    with pytest.raises(NotInLattice):
        H.bernstein((1, 0))
    Hw = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    with pytest.raises(NotInLattice):
        # not in the effective lattice of these node weights
        Hw.bernstein((0, 1))
    # T_w exists exactly when the length-zero part of w preserves the weights
    for kind, rank, w in [("A", 1, [1, 2]), ("C", 2, [1, 2, 3]),
                          ("C", 3, [1, 2, 3]), ("C", 4, [1, 1, 2]),
                          ("D", 4, 1), ("D", 5, 1), ("A", 5, 1)]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        kept = set(H.omega.elements)
        for om in H.omega_full.elements:
            for x in elements_up_to_length(H.datum, 3):
                g = om * x
                if g.reduced_word()[0] in kept:
                    H.t(g)
                else:
                    with pytest.raises(NotInLattice):
                        H.t(g)


def test_cross_algebra_guards():
    H = HeckeAlgebra(build_root_datum("C", 2))
    other = HeckeAlgebra(build_root_datum("A", 2))
    with pytest.raises(DatumMismatch):
        H.t(ExtWeylElt.simple_reflection(other.datum, 1))
    with pytest.raises(DatumMismatch):
        H.one() + other.one()


def test_element_accessors():
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    d = H.datum
    s0 = ExtWeylElt.simple_reflection(d, 0)
    assert H.q_of(s0) == Laurent.v(6)
    x = H.t(s0) * H.t(s0)
    assert set(x.support()) <= {s0, ExtWeylElt.identity(d)}
    assert x.coeff(s0) == H.q_of(s0) - Laurent.one()
    assert not x.is_zero()
    assert H.zero().is_zero()
    assert x.min_exponent() >= 0
