"""Hecke algebra kernel: defining relations, the star basis, the sign
involution, and the Bernstein presentation."""

import itertools
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
    translation_word,
)
from heckelab import hecke, intlin
from geom_oracle import bernstein_star_first, letter_by_letter

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
    # one twisted walk per dominant part gives the same element as one
    # Bernstein element per orbit point; A2 and B3 on the coroot lattice
    # also take the shifted split of dominant_decomposition
    shifted = {}
    a2 = HeckeAlgebra(build_root_datum("A", 2, lattice="coroot"))
    b3 = HeckeAlgebra(build_root_datum("B", 3, lattice="coroot"))
    cases = [(H, eff_gens(H)) for H in list(algebras()) + [a2, b3]]
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
    assert shifted == {"A2": 4, "B3": 12}


# the seven data of the kernel battery (acceptance criterion 7) and
# weighted B3, C3 and G2
ORACLE_DATA = [
    ("A", 1, 1), ("A", 1, [1, 2]), ("A", 2, 1), ("C", 2, 1),
    ("C", 2, [1, 2, 3]), ("B", 3, 1), ("G", 2, 1),
    ("B", 3, [2, 1]), ("C", 3, [1, 2, 3]), ("G", 2, [2, 1]),
]


@pytest.mark.parametrize("kind, rank, w", ORACLE_DATA)
def test_bernstein_elements_match_star_first_order(kind, rank, w):
    """Each Bernstein element, walked from $T_{t_-}$ through the twisted
    letters of $t_+$, equals the product in the order $T^*_{t_+} T_{t_-}$
    with $T^*_{t_+}$ expanded (:func:`bernstein_star_first`), at every
    point of the effective lattice in $[-2, 2]^{rank}$.  On rank 3 the
    box leaves out the points whose positive part has L1 norm above 3
    (16 of 125 on B3): their expanded factors take two thirds of the
    box's time, about 10 s per datum."""
    H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
    d = H.datum
    box = [lam for lam in itertools.product(range(-2, 3), repeat=rank)
           if d.in_lattice(lam) and H.in_effective_lattice(lam)
           and (rank < 3 or sum(max(x, 0) for x in lam) <= 3)]
    assert len(box) > 1
    for lam in box:
        assert H.bernstein(lam) == bernstein_star_first(H, [lam]), lam


@pytest.mark.parametrize("kind, rank, w", ORACLE_DATA)
def test_orbit_sums_match_star_first_order(kind, rank, w):
    """Every orbit of at most 24 points of an effective monoid generator
    sums, through :meth:`HeckeAlgebra.central`, to the sum of its
    Bernstein elements in the order $T^*_{t_+} T_{t_-}$."""
    H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
    d = H.datum
    orbits = [d.weyl_orbit(g) for g in H.monoid_generators("effective")]
    orbits = [(tuple(o[0].tolist()), o) for o in orbits if len(o) <= 24]
    assert orbits
    for gen, orbit in orbits:
        assert H.central(gen) == bernstein_star_first(H, orbit), gen


@pytest.mark.parametrize("kind, rank, gen", [
    ("B", 4, (0, 0, 0, 1)), ("C", 5, (1, 0, 0, 0, 0))])
def test_large_orbit_sums_are_central(kind, rank, gen):
    """Orbit sums that took 22 s (B4) and 4.5 s (C5) while each twisted
    factor was expanded from the identity: they commute with every $T_s$
    and every length-zero element of the algebra, and their coefficients
    are polynomials in $v^2$."""
    H = HeckeAlgebra(build_root_datum(kind, rank))
    z = H.central(gen)
    assert len(z.terms) > 100
    assert z.all_coeffs_polynomial() and z.all_coeffs_even()
    for s in range(rank + 1):
        ts = H.t_word((s,))
        assert z * ts == ts * z, s
    for omega in H.omega.elements:
        to = H.t(omega)
        assert z * to == to * z


def test_lattice_rays_run_once_per_basis(fresh_frames):
    # the monoid generators and the Bernstein split of one lattice share
    # one exact inverse; 4 points of the B3 orbit of (0, 1, 0) split with
    # a shift at the coroot level, which reads the rays
    intlin.lattice_rays.cache_clear()
    H = HeckeAlgebra(build_root_datum("B", 3))
    H.monoid_generators("coroot")
    orbit = H.datum.weyl_orbit((0, 1, 0))
    plus, minus, delta = H.bernstein_split(orbit, "coroot")
    assert (plus != np.maximum(orbit, 0)).any(axis=1).sum() == 4
    assert (plus - minus == orbit).all() and (delta >= 0).all()
    info = intlin.lattice_rays.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_monoid_generators_kept_per_type_and_basis(fresh_frames):
    """Weightings of one type whose effective lattices differ each read
    generators and class counts of their own lattice, equal to a fresh
    computation, whatever the order of the levels asked: on every README
    type at weight 1 and with the class weights 1, 2, ..., which breaks
    some length-zero symmetries, over the coweight and the coroot
    lattice.  Each type's table holds one entry per level basis."""
    from test_extweyl import README_TYPES
    algs = []
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        ranked = range(1, len(d.classes) + 1)
        algs += [HeckeAlgebra(build_root_datum(kind, rank, weights=w,
                                               lattice=lattice))
                 for w in (1, ranked) for lattice in ("coweight", "coroot")]
    keys = {}
    for level in ("effective", "coroot", "effective"):
        for H in algs:
            d, basis = H.datum, H._level_basis(level)
            gens = H.monoid_generators(level)
            assert gens == dominant_monoid_generators(d, basis), (d, level)
            counts = H.generator_class_counts(level)
            assert not counts.flags.writeable
            assert (counts == d.translation_class_counts(
                np.array(gens))).all(), (d, level)
            keys.setdefault(d.label(), set()).add(basis)
    assert {H.datum.label(): set(H.datum._level_generators)
            for H in algs} == keys
    c2 = [H for H in algs if H.datum.label() == "C2"]
    assert len({H.effective_basis for H in c2}) == 2


def test_algebras_of_one_basis_share_one_computation(monkeypatch,
                                                     fresh_frames):
    """Two algebras of C2 whose weights differ but keep the same effective
    lattice build its generators and class counts once and hold the same
    objects; an algebra whose weights break the length-zero symmetry has
    the coroot lattice as its effective one and builds it apart."""
    seen = []
    real = hecke.dominant_monoid_generators
    monkeypatch.setattr(hecke, "dominant_monoid_generators",
                        lambda d, lattice: seen.append(d) or real(d, lattice))
    H = HeckeAlgebra(build_root_datum("C", 2))
    K = HeckeAlgebra(build_root_datum("C", 2, weights=[2, 1, 1]))
    assert H.effective_basis == K.effective_basis
    gens = H.monoid_generators("effective")
    assert K.monoid_generators("effective") is gens
    assert (K.generator_class_counts("effective")
            is H.generator_class_counts("effective"))
    assert seen == [H.datum]
    L = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 1, 2]))
    assert L.monoid_generators("effective") == ((0, 2), (1, 0)) != gens
    assert gens == ((0, 1), (1, 0))
    assert seen == [H.datum, L.datum]


def test_product_takes_one_step_per_trie_edge(monkeypatch):
    """Each edge of the right factor's prefix trie steps every term of its
    partial product once: the calls of ``step_vector`` from a product are
    the pairs (letter, alcove vector of a term the letter multiplies)."""
    H = HeckeAlgebra(build_root_datum("A", 3))
    d = H.datum
    x = H.t_word((0, 1))
    y21, y23 = (ExtWeylElt.from_word(d, w) for w in [(2, 1), (2, 3)])
    z = ExtWeylElt.from_word(d, (1, 2, 3, 0))
    assert [y.reduced_word()[1] for y in (y21, y23)] == [(2, 1), (2, 3)]
    word = z.reduced_word()[1]

    def expected(product):
        # the steps of letter i are taken on the terms of the partial
        # product before it, computed before any step is counted
        prefixes = [ExtWeylElt.from_word(d, word[:i])
                    for i in range(len(word))]
        return sorted((s, u.q) for s, w in zip(word, prefixes)
                      for u in product(w).terms)

    plain = expected(lambda w: x * H.t(w))
    star = expected(H.star_t)
    split = x * H.t(y21) + x * H.t(y23)
    calls = []
    step_vector = hecke.step_vector

    def counted(datum, q, s):
        calls.append((s, q))
        return step_vector(datum, q, s)

    monkeypatch.setattr(hecke, "step_vector", counted)
    prod = x * (H.t(y21) + H.t(y23))
    # the prefix 2 is taken once
    assert sorted(s for s, _ in calls) == [1, 2, 3]
    assert prod == split
    calls.clear()
    x * H.t(z)
    assert len(plain) > len(word) and sorted(calls) == plain
    calls.clear()
    H.star_t(z)
    assert sorted(calls) == star


def coefficient_objects(elt):
    return {id(c) for c in elt.terms.values()}


def test_products_code_each_distinct_coefficient_once(monkeypatch):
    """On C2 with weights [1, 2, 3], a product of two Bernstein elements
    and a central orbit sum, whose terms repeat coefficients, decode once
    per distinct nonzero packed value and share that ``Laurent`` among
    the terms carrying it; the product encodes once per distinct
    coefficient object of each factor."""
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    x, y = H.bernstein((1, 0)), H.central((0, 2))
    decoded, encoded = [], []
    unpack, pack = Laurent.unpack, Laurent.pack

    def counted_unpack(p, b, lo):
        decoded.append((p, b, lo))
        return unpack(p, b, lo)

    def counted_pack(self, b, lo):
        encoded.append(id(self))
        return pack(self, b, lo)

    def check_decoded(out):
        values = set(out.terms.values())
        assert len(values) < len(out.terms)
        assert len(decoded) == len(set(decoded)) == len(values)
        assert len(coefficient_objects(out)) == len(values)
        decoded.clear()

    monkeypatch.setattr(Laurent, "unpack", staticmethod(counted_unpack))
    monkeypatch.setattr(Laurent, "pack", counted_pack)
    check_decoded(x * y)
    assert len(coefficient_objects(x)) < len(x.terms)
    assert sorted(encoded) == sorted(coefficient_objects(x)
                                     | coefficient_objects(y))
    check_decoded(H.central((0, 2)))


@pytest.mark.parametrize("kind, rank, w, lam, mu, gen", [
    ("C", 2, [1, 2, 3], (1, 0), (1, -2), (1, 0)),
    ("B", 3, 1, (1, -2, 1), (0, 0, 1), (1, 0, 0)),
    ("B", 3, 1, (1, 0, 0), (0, 1, -1), (1, 0, 0)),
])
def test_products_of_repeated_coefficients_match_oracles(kind, rank, w, lam,
                                                         mu, gen):
    """Bernstein elements and an orbit sum, whose terms repeat a few
    coefficients, multiply in both orders as the letter-by-letter product
    does, and the orbit sum equals the sum of its Bernstein elements in
    the order $T^*_{t_+} T_{t_-}$."""
    H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
    e, f, z = H.bernstein(lam), H.bernstein(mu), H.central(gen)
    assert z == bernstein_star_first(H, H.datum.weyl_orbit(gen))
    for elt in (e, z):
        assert len(set(elt.terms.values())) < len(elt.terms)
    for a, b in [(e, f), (f, e), (z, e), (e, z)]:
        assert a * b == letter_by_letter(a, b)


def test_operations_leave_operand_coefficients_unchanged():
    """Products, sums, scaling, the sign automorphism, twisted symbols
    and Bernstein elements build new coefficients: every ``Laurent`` of
    their operands, and of earlier results that share coefficients among
    their terms, keeps its object and its exponent map."""
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    e, z = H.bernstein((1, 0)), H.central((0, 2))
    x = H.t_word((0, 1, 2)).scale(Laurent({-1: 2, 3: -1})) + H.one()
    elts = [e, z, x, e * z]

    def snapshot():
        return [[(w, id(c), dict(c.c)) for w, c in elt.terms.items()]
                for elt in elts]

    before = snapshot()
    for a in elts:
        for b in elts:
            a * b, a + b
        a.scale(Laurent({0: 3, 2: -1}))
        a.scale(-2)
        H.sign_star(a)
        for w in a.terms:
            H.star_t(w)
    H.bernstein((1, 0))
    assert snapshot() == before


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


def test_products_build_no_matrix(monkeypatch):
    """Hecke products read every group element off its alcove vector: on
    B3 a central orbit sum and a product of two length-6 elements, each
    with a length-zero part that is not the identity, build no element's
    matrices and make no matrix product."""
    H = HeckeAlgebra(build_root_datum("B", 3))
    x, y = [w for w in elements_up_to_length(H.datum, 6, extended=True)
            if w.length() == 6 and not w.reduced_word()[0].is_identity()][:2]
    built, products = [], []
    materialize, mat_mul = ExtWeylElt._materialize, intlin.mat_mul
    monkeypatch.setattr(ExtWeylElt, "_materialize",
                        lambda self: built.append(self) or materialize(self))
    monkeypatch.setattr(intlin, "mat_mul",
                        lambda a, b: products.append(1) or mat_mul(a, b))
    z = H.central((0, 0, 1))
    prod = H.t(x) * H.t(y)
    assert len(z.terms) > 1 and len(prod.terms) > 1
    assert built == [] and products == []


def test_products_make_no_laurent_sums(monkeypatch):
    """Products add, subtract and shift packed integer coefficients, not
    ``Laurent`` polynomials: on B3, with ``Laurent.__add__``, ``__sub__``
    and ``shift`` refused, a central orbit sum equals the sum of its
    Bernstein elements and a product of two length-6 elements equals the
    letter-by-letter product, both computed before the refusal."""
    H = HeckeAlgebra(build_root_datum("B", 3))
    x, y = [H.t(w) for w in elements_up_to_length(H.datum, 6, extended=True)
            if w.length() == 6 and not w.reduced_word()[0].is_identity()][:2]
    gen = (0, 0, 1)
    z_expected = H.zero()
    for mu in H.datum.weyl_orbit(gen).tolist():
        z_expected = z_expected + H.bernstein(mu)
    prod_expected = letter_by_letter(x, y)

    def refuse(*args):
        raise AssertionError("Laurent arithmetic in a Hecke product")

    for name in ("__add__", "__sub__", "shift"):
        monkeypatch.setattr(Laurent, name, refuse)
    z, prod = H.central(gen), x * y
    monkeypatch.undo()
    assert len(z.terms) > 1 and len(prod.terms) > 1
    assert z == z_expected and prod == prod_expected


def test_packed_products_past_64_bits():
    """Products whose coefficients pass 64 bits, reach $2^{63}$ exactly,
    or cancel to zero, against the letter-by-letter product and the
    quadratic relation $(T_s - q_s)(T_s + 1) = 0$."""
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    d = H.datum
    # a product of monomials on length-zero parts meets the L1 bound, so
    # its coefficient fills the slot: 2^63 needs 64 bits and a sign bit
    omega = H.omega.elements[-1]
    for a, c in [(2**31, 2**32), (-(2**31), 2**32), (2**40, -(2**40))]:
        top = H.t(omega).scale(Laurent.v(-5) * a) * H.t(omega).scale(c)
        assert top == H.t(omega * omega).scale(Laurent.v(-5) * (a * c))
    x = H.t_word((0, 1, 2)).scale(Laurent({-3: 2**70, 4: -(2**50)}))
    y = H.t_word((2, 1)).scale(Laurent({5: 2**60 + 1})) + H.one()
    prod = x * y
    assert prod == letter_by_letter(x, y)
    assert max(abs(a).bit_length() for c in prod.terms.values()
               for a in c.c.values()) > 64
    for s in range(d.rank + 1):
        ts = H.t_word((s,))
        qs = H.q(s)
        top = ts.scale(2**31) * ts.scale(2**32)
        assert top == (ts.scale(qs - Laurent.one())
                       + H.one().scale(qs)).scale(2**63)
        assert top.coeff(ExtWeylElt.identity(d)) == qs * 2**63
        big = Laurent({-7: 2**70, 2: -3})
        left = (ts - H.one().scale(qs)).scale(big)
        right = (ts + H.one()).scale(big)
        assert (left * right).is_zero()
        assert (right * left).is_zero()


def test_central_from_orbit_validates():
    H = HeckeAlgebra(build_root_datum("C", 2))
    orbit = H.datum.weyl_orbit((1, 1))
    assert H.central_from_orbit(orbit) == H.central((1, 1))
    with pytest.raises(NotAFullOrbit):
        H.central_from_orbit(orbit[:-1])
    with pytest.raises(NotAFullOrbit):
        H.central_from_orbit([])


def test_coordinates_that_are_not_integers_are_refused():
    # numpy would truncate 1.5 to 1 and count True as 1
    H = HeckeAlgebra(build_root_datum("C", 2))
    d = H.datum
    for call in [lambda: H.central((1.5, 0)), lambda: H.bernstein((0.5, 0)),
                 lambda: H.lattice_coordinates([1.7, 0]),
                 lambda: d.weyl_orbit((True, 0)),
                 lambda: d.is_weyl_orbit(np.array([[1.0, 0.0]])),
                 lambda: ExtWeylElt.translation(d, (1.7, 0)),
                 lambda: ExtWeylElt.translation(d, (True, 0)),
                 lambda: translation_word(d, (1.7, 0)),
                 lambda: translation_word(d, (True, 0))]:
        with pytest.raises(TypeError):
            call()


def test_translations_refuse_points_of_another_length():
    d = build_root_datum("C", 2)
    for lam in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError):
            ExtWeylElt.translation(d, lam)
        with pytest.raises(ValueError):
            translation_word(d, lam)


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


def test_equality_respects_the_algebra():
    """Elements of algebras that ``*`` refuses to mix are unequal, even
    with equal alcove vectors; an algebra of a datum built twice compares
    equal."""
    def vectors(x):
        return {w.q: c for w, c in x.terms.items()}

    a2, g2 = (HeckeAlgebra(build_root_datum(k, 2)) for k in "AG")
    assert vectors(a2.one()) == vectors(g2.one()) and a2.one() != g2.one()
    plain, weighted = (HeckeAlgebra(build_root_datum("C", 2, weights=w))
                       for w in ([1, 1, 1], [1, 2, 3]))
    s1, s1_weighted = plain.t_word((1,)), weighted.t_word((1,))
    assert vectors(s1) == vectors(s1_weighted) and s1 != s1_weighted
    for x, y in [(a2.one(), g2.one()), (s1, s1_weighted)]:
        with pytest.raises(DatumMismatch):
            x * y
    again = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 3]))
    assert again is not weighted and again.datum is not weighted.datum
    assert again.t_word((1,)) == s1_weighted
    assert hash(again.t_word((1,))) == hash(s1_weighted)
    assert again.t_word((1,)) * s1_weighted == s1_weighted * s1_weighted


def test_sums_keep_the_left_algebra():
    # a sum or difference with an element of an equal algebra built apart
    # holds group elements of the left operand's datum only
    H1, H2 = (HeckeAlgebra(build_root_datum("C", 2)) for _ in range(2))
    assert H1.datum is not H2.datum
    s1 = H2.t_word((1,))
    for x in (H1.one() + s1, H1.one() - s1, H1.t_word((1,)) + s1):
        assert x.alg is H1
        assert all(w.datum is H1.datum for w in x.terms)
    assert H1.one() + s1 == H1.one() + H1.t_word((1,))
    assert (H1.t_word((1,)) - s1).is_zero()
    assert (H1.one() + s1) * H1.t_word((2,)) == (
        H1.t_word((2,)) + H1.t_word((1, 2)))


def test_scale_takes_integers_and_laurent_polynomials():
    H = HeckeAlgebra(build_root_datum("A", 2))
    x = H.t_word((1, 2)) + H.one()
    for n in (2, np.int64(2), np.uint8(2)):
        assert x.scale(n) == x + x
        assert all(type(a) is int for c in x.scale(n).terms.values()
                   for a in c.c.values())
    assert x.scale(Laurent.v(2)).coeff(ExtWeylElt.identity(H.datum)) == (
        Laurent.v(2))
    assert x.scale(0).is_zero() and x.scale(np.int64(0)).is_zero()
    for bad in (True, False, 2.0, np.float64(2), "2", None):
        for elt in (x, H.zero()):
            with pytest.raises(TypeError):
                elt.scale(bad)


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
