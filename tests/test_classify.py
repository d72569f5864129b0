"""Discreteness exponents, supersingularity, and the classification
search over the supported table of data.

The exact mod-p routes for central matrices are cross-checked against
the exact symbolic action, including on orbits that are not monoid
generators, and the monomial route against the dense one."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import (
    FinModule,
    HeckeAlgebra,
    Laurent,
    LaurentMatrix,
    NotInLattice,
    build_root_datum,
    central_orbit_matrix_v0,
    character_extends,
    dominant_monoid_generators,
    enumerate_characters,
    induce_character,
    is_discrete_character,
    is_supersingular,
    key_result_search,
    reflection_module,
    translation_exponent,
)
from heckelab.classify import _OrbitActor, _monomial_entries
from heckelab.intlin import is_prime

# label -> exponents on the dominant generators of the coroot lattice
C2_EXPONENTS = {
    "(q, q, q)": [6, 4],
    "(q, q, -1)": [2, 2],
    "(q, -1, q)": [2, 2],
    "(q, -1, -1)": [-2, 0],
    "(-1, q, q)": [2, 0],
    "(-1, q, -1)": [-2, -2],
    "(-1, -1, q)": [-2, -2],
    "(-1, -1, -1)": [-6, -4],
}

G2_EXPONENTS = {
    "(q, q)": [6, 10],
    "(q, -1)": [2, 2],
    "(-1, q)": [-2, -2],
    "(-1, -1)": [-6, -10],
}

VERDICTS = [
    ("A", 1, 1, "ExcludedTypeA"),
    ("A", 1, [1, 2], "Character1Dim"),
    ("A", 2, 1, "ExcludedTypeA"),
    ("A", 3, 1, "ExcludedTypeA"),
    ("B", 3, 1, "Character1Dim"),
    ("C", 2, [1, 1, 1], "Induced2Dim"),
    ("C", 2, [2, 1, 1], "Induced2Dim"),
    ("C", 2, [1, 2, 2], "Character1Dim"),
    ("C", 2, [2, 3, 3], "Character1Dim"),
    ("C", 3, [1, 1, 1], "Induced2Dim"),
    ("C", 3, [2, 1, 1], "Character1Dim"),
    ("C", 3, [1, 2, 2], "Induced2Dim"),
    ("C", 3, [2, 3, 3], "Induced2Dim"),
    ("D", 3, 1, "ExcludedTypeA"),
    ("D", 4, 1, "ReflectionTwist"),
    ("F", 4, 1, "Character1Dim"),
    ("G", 2, 1, "Character1Dim"),
    ("B", 3, [1, 2], "UnhandledCase"),
]

# the acceptance rows outside types D and E: answered by characters,
# extended characters or induced modules (all monomial), or excluded
C_PATTERNS = [[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 3, 3]]
MONOMIAL_ROWS = ([("A", 1, [1, 1]), ("A", 1, [1, 2]), ("A", 2, 1),
                  ("A", 3, 1), ("A", 4, 1), ("B", 3, 1)]
                 + [("C", r, w) for r in (2, 3, 4, 5) for w in C_PATTERNS]
                 + [("F", 4, 1), ("G", 2, 1)])


def _exponent_table(kind, rank, table):
    d = build_root_datum(kind, rank)
    H = HeckeAlgebra(d)
    from heckelab import dominant_monoid_generators
    gens = sorted(dominant_monoid_generators(d, lattice="coroot"))
    for ch in enumerate_characters(H, "generic"):
        got = [translation_exponent(H, ch, g) for g in gens]
        assert got == table[ch.label()], ch.label()


def test_exponents_c2():
    _exponent_table("C", 2, C2_EXPONENTS)


def test_exponents_g2():
    _exponent_table("G", 2, G2_EXPONENTS)


def test_exponents_additive_on_dominant_coroot_points():
    # additivity can fail across length-zero parts (they permute the
    # letter classes), but inside the coroot lattice it holds
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    for ch in enumerate_characters(H, "generic"):
        k = lambda lam: translation_exponent(H, ch, lam)
        assert k((1, 2)) == k((1, 0)) + k((0, 2))
        assert k((2, 0)) == 2 * k((1, 0))
        assert k((3, 4)) == 3 * k((1, 0)) + 2 * k((0, 2))


def test_discreteness_flags_c2():
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    discrete = set()
    for ch in enumerate_characters(H, "generic"):
        flag, cert = is_discrete_character(H, ch)
        if flag:
            discrete.add(ch.label())
            assert all(row["exponent"] < 0 for row in cert["rows"])
    assert discrete == {"(-1, q, -1)", "(-1, -1, q)", "(-1, -1, -1)"}


def test_discreteness_flags_b3_unhandled_decoration():
    H = HeckeAlgebra(build_root_datum("B", 3, weights=[1, 2]))
    flags = {ch.label(): is_discrete_character(H, ch)[0]
             for ch in enumerate_characters(H, "generic")}
    assert flags == {"(q, q^2)": False, "(q, -1)": False,
                     "(-1, q^2)": False, "(-1, -1)": True}


def test_trivial_never_discrete_special_always():
    for kind, rank, w in [("A", 2, 1), ("C", 2, 1), ("G", 2, 1),
                          ("B", 3, [2, 1]), ("D", 4, 1)]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        chars = enumerate_characters(H, "generic")
        trivial = next(c for c in chars if c.is_trivial())
        special = next(c for c in chars if c.is_special())
        assert not is_discrete_character(H, trivial)[0]
        assert is_discrete_character(H, special)[0]


def test_verdict_table():
    for kind, rank, w, expected in VERDICTS:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        out = key_result_search(H)
        assert out.case == expected, (kind, rank, w, out.case)


def test_search_requires_the_full_coweight_lattice():
    H = HeckeAlgebra(build_root_datum("A", 2, lattice="coroot"))
    with pytest.raises(ValueError):
        key_result_search(H)


def test_one_dim_outcome_details():
    out = key_result_search(HeckeAlgebra(build_root_datum("G", 2)))
    assert out.case == "Character1Dim"
    assert out.dimension == 1 and out.r == 1
    assert out.module is not None and out.module.is_modular
    cert = out.certificate
    assert cert["relations"] == "pass"
    assert cert["supersingular_mod_p"]["nilpotent"] is True
    assert all(row["exponent"] < 0 for row in cert["discrete"]["table"]["rows"])
    assert out.character.omega_signs is not None


def test_two_dim_outcome_details():
    out = key_result_search(HeckeAlgebra(build_root_datum("C", 2)))
    assert out.case == "Induced2Dim"
    assert out.dimension == 2 and out.r == 2
    cert = out.certificate
    assert cert["relations"] == "pass"
    assert cert["supersingular_mod_p"]["nilpotent"] is True
    assert {"component", "twisted_component"} <= set(cert["discrete"]["table"])


def test_reflection_outcome_details():
    out = key_result_search(HeckeAlgebra(build_root_datum("D", 4)))
    assert out.case == "ReflectionTwist"
    assert out.dimension == 5
    cert = out.certificate
    assert cert["discrete"]["method"] == "cited-lusztig"
    per = cert["supersingular_mod_p"]["per_orbit"]
    assert [e["orbit_size"] for e in per] == [8, 8, 24, 8]
    assert all(e["nilpotent"] for e in per)


def test_monoid_generators_computed_once_per_level(monkeypatch):
    """The search asks for coroot generators once per character and for
    effective ones in discreteness and supersingularity; the algebra
    computes each level once."""
    from heckelab import hecke
    seen = []
    real = hecke.dominant_monoid_generators

    def counted(datum, lattice):
        seen.append(lattice)
        return real(datum, lattice)

    monkeypatch.setattr(hecke, "dominant_monoid_generators", counted)
    H = HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2]))
    out = key_result_search(H)
    assert out.case == "Character1Dim"
    assert seen == ["coroot", H.effective_basis]
    assert H.monoid_generators("coroot") == dominant_monoid_generators(
        H.datum, "coroot")
    with pytest.raises(ValueError):
        H.monoid_generators("lattice")


def test_search_respects_prime():
    out = key_result_search(HeckeAlgebra(build_root_datum("G", 2)), p=11)
    assert out.module.prime == 11
    assert out.case == "Character1Dim"


@functools.cache
def _orbit_module(name):
    """The algebra and module of an orbit check: the induced C2 module
    ("C2") or the twisted D4 reflection module ("D4")."""
    if name == "C2":
        H = HeckeAlgebra(build_root_datum("C", 2))
        bad = [c for c in enumerate_characters(H, "generic")
               if not character_extends(H, c)[0]]
        return H, induce_character(H, bad[0])
    H = HeckeAlgebra(build_root_datum("D", 4))
    return H, reflection_module(H).star_twist()


@functools.cache
def _exact_at_v0(name, lam):
    """The matrix at v = 0 of the central sum over the Weyl orbit of
    ``lam`` on :func:`_orbit_module` ``name``, by the exact route
    (``FinModule.act`` on ``central_from_orbit``), computed once."""
    H, mod = _orbit_module(name)
    return mod.act(H.central_from_orbit(H.datum.weyl_orbit(lam))).at_v0()


def test_truncated_route_matches_exact_action():
    # (1,1) and (2,2) are regular orbits, not monoid generators; 999983 is
    # the largest prime below 10^6, where a float64 route stopped
    cases = [("C2", lam, (7, 999983))
             for lam in [(1, 0), (0, 2), (1, 1), (2, 2)]]
    cases += [("D4", lam, (5, 999983))
              for lam in [(1, 0, 0, 0), (0, 1, 0, 0)]]
    for name, lam, primes in cases:
        H, mod = _orbit_module(name)
        for p in primes:
            fast = central_orbit_matrix_v0(mod, H.datum.weyl_orbit(lam), p)
            assert np.array_equal(fast, _exact_at_v0(name, lam) % p), (
                name, lam, p)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("C2", (1, 0)), ("C2", (0, 2)), ("C2", (1, 1)),
                        ("D4", (1, 0, 0, 0)), ("D4", (0, 1, 0, 0))]),
       st.integers(2, 2**31 - 1))
def test_orbit_route_matches_exact_action_at_random_primes(case, n):
    """Both consumers of the Bernstein split agree at any prime below
    2^31: the orbit route (monomial on C2, dense on D4) and the exact
    action of the central element, each orbit's exact matrix computed
    once."""
    p = n
    while not is_prime(p):  # the largest prime at most n
        p -= 1
    name, lam = case
    H, mod = _orbit_module(name)
    fast = central_orbit_matrix_v0(mod, H.datum.weyl_orbit(lam), p)
    assert np.array_equal(fast, _exact_at_v0(name, lam) % p)


def test_points_of_the_wrong_length_are_refused():
    # a 4-coordinate point on C2 is not two points, and not an IndexError
    H, induced = _orbit_module("C2")
    for call in [lambda: H.dominant_decomposition((1, -2, 3, 4)),
                 lambda: H.dominant_decomposition([(1, 0), (1, 0, 0)]),
                 lambda: H.bernstein((1, 0, 0, 1)),
                 lambda: central_orbit_matrix_v0(induced, [(1, 0, 0, 1)],
                                                 5)]:
        with pytest.raises(ValueError, match="rank-2 datum has 2 "
                                             "coordinates"):
            call()


def test_orbit_outside_the_coroot_lattice_is_refused():
    # a module without a length-zero action sees coroot translations only
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    sp = next(c for c in enumerate_characters(H, "generic")
              if c.is_special())
    mod = sp.as_module(H)
    assert mod.omega_mats is None and not d.in_coroot_lattice((0, 1))
    with pytest.raises(NotInLattice, match="coroot lattice"):
        central_orbit_matrix_v0(mod, d.weyl_orbit((0, 1)), 5)


def test_monomial_route_matches_dense_route():
    # every orbit summand of every generator orbit the certificates use:
    # row by row, the monomial route's stack against the dense route
    # called directly at each point, on that point's own split
    checked = 0
    for kind, rank, w in MONOMIAL_ROWS:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        out = key_result_search(H)
        if out.module is None:
            continue
        checked += 1
        src, d = out.module.generic, H.datum
        lattice = ("coroot" if src.omega_mats is None
                   else H.effective_basis)
        wl = d.translation_weighted_length
        for gen in dominant_monoid_generators(d, lattice):
            orbit = d.weyl_orbit(gen)
            for p in (5, 7, 999983):
                actor = _OrbitActor(src, p)
                assert actor.monomial is not None, (kind, rank, w)
                stack = actor.orbit_terms(orbit)
                assert stack.shape == (len(orbit), src.dim, src.dim)
                for lam, term in zip(orbit, stack):
                    plus, minus = H.dominant_decomposition(lam, actor.level)
                    delta = wl(plus) + wl(minus) - wl(lam)
                    assert np.array_equal(
                        term, actor._dense_term(plus, minus, delta)), (
                        kind, rank, w, lam, p)
    # all but the four type-A rows with equal weights
    assert checked == len(MONOMIAL_ROWS) - 4


def test_monomial_route_at_the_largest_prime():
    # at 2^63 - 25, the largest prime below 2^63, on a character over the
    # coroot lattice (B3's special character, whose (0, 1, 0) orbit splits
    # with a shift) and on the induced C2 answer over the effective
    # lattice, whose summands reach p - 1
    p = 2**63 - 25
    d3 = build_root_datum("B", 3)
    H3 = HeckeAlgebra(d3)
    sp = next(c for c in enumerate_characters(H3, "generic")
              if c.is_special())
    d2 = build_root_datum("C", 2)
    H2 = HeckeAlgebra(d2)
    induced = key_result_search(H2).module.generic
    assert induced.dim == 2 and induced.omega_mats is not None
    cases = [(d3, H3, sp.as_module(H3), [(0, 1, 0), (2, 0, 0)]),
             (d2, H2, induced, list(H2.monoid_generators("effective")))]
    top = 0
    for d, H, mod, lams in cases:
        actor = _OrbitActor(mod, p)
        assert actor.monomial is not None
        for lam in lams:
            orbit = d.weyl_orbit(lam)
            top = max(top, int(actor.orbit_terms(orbit).max()))
            fast = central_orbit_matrix_v0(mod, orbit, p)
            exact = mod.act(H.central_from_orbit(orbit)).at_v0() % p
            assert np.array_equal(fast, exact), (d, lam)
    assert top == p - 1


def test_monomial_route_on_the_regular_length_zero_action():
    # scalar T_s on A3 with the regular representation of its Z/4 of
    # length-zero elements: the two length-zero factors of a summand are
    # permutations that no 1x1 or induced answer distinguishes from their
    # inverses
    d = build_root_datum("A", 3)
    H = HeckeAlgebra(d)
    om = H.omega
    n = len(om)
    assert om.structure() == "Z/4"
    regular = [[[int(om.mult_index(k, j) == i) for j in range(n)]
                for i in range(n)] for k in range(n)]
    for value in (H.q(0), Laurent.of_int(-1)):
        scalar = [[value if i == j else 0 for j in range(n)]
                  for i in range(n)]
        mod = FinModule(H, [scalar] * (d.rank + 1), regular)
        mod.check_relations()
        for lam in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            orbit = d.weyl_orbit(lam)
            exact = mod.act(H.central_from_orbit(orbit)).at_v0()
            for p in (5, 2**63 - 25):
                assert _OrbitActor(mod, p).monomial is not None
                fast = central_orbit_matrix_v0(mod, orbit, p)
                assert np.array_equal(fast, exact % p), (value, lam, p)


def test_non_monomial_module_takes_the_dense_route():
    # conjugating the induced module by an upper unitriangular matrix
    # keeps the relations but fills in off-diagonal entries
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    bad = [c for c in enumerate_characters(H, "generic")
           if not character_extends(H, c)[0]]
    m = induce_character(H, bad[0])
    u = LaurentMatrix.from_rows([[[1, 1], [0, 1]]])
    u_inv = LaurentMatrix.from_rows([[[1, -1], [0, 1]]])
    conj = FinModule(H, u @ m.smats @ u_inv, u @ m.omega_mats @ u_inv,
                     name="conjugated induced module")
    conj.check_relations()
    # its length-zero matrix [[1, 0], [1, -1]] has single-term entries,
    # two in one row; [[1, 0], [1, 0]] has two in one column
    assert _monomial_entries(conj.omega_mats) is None
    two_in_column = LaurentMatrix.from_rows([[[1, 0], [1, 0]]])
    assert _monomial_entries(two_in_column) is None
    # a non-unit entry is refused; units give (column, sign bit, exponent)
    assert _monomial_entries(LaurentMatrix.from_rows(
        [[[0, 3], [-1, 0]]])) is None
    cols, neg, exp = _monomial_entries(LaurentMatrix.from_rows(
        [[[0, Laurent.v(2)], [-1, 0]]]))
    assert [a.tolist() for a in (cols, neg, exp)] == [[[1, 0]], [[0, 1]],
                                                        [[2, 0]]]
    assert all(a.dtype == np.int64 for a in (cols, neg, exp))
    for lam in [(1, 0), (0, 2), (1, 1)]:
        orbit = d.weyl_orbit(lam)
        exact = conj.act(H.central_from_orbit(orbit))
        for p in (5, 7):
            assert _OrbitActor(conj, p).monomial is None
            fast = central_orbit_matrix_v0(conj, orbit, p)
            assert np.array_equal(fast, exact.at_v0() % p), (lam, p)


def test_special_character_route_matches_exact_action():
    # the criterion-6 path: a character without length-zero action,
    # whose orbits run over the coroot lattice; 4 points of the B3 orbit
    # split with a shift at the coroot level
    for kind, rank, lams in [("C", 2, [(0, 2), (2, 0), (2, 2)]),
                             ("G", 2, [(1, 0), (0, 1), (1, 1)]),
                             ("B", 3, [(0, 1, 0)])]:
        d = build_root_datum(kind, rank)
        H = HeckeAlgebra(d)
        sp = next(c for c in enumerate_characters(H, "generic")
                  if c.is_special())
        mod = sp.as_module(H)
        assert mod.omega_mats is None
        for lam in lams:
            assert d.in_coroot_lattice(lam)
            orbit = d.weyl_orbit(lam)
            exact = mod.act(H.central_from_orbit(orbit))
            for p in (5, 7, 999983):
                assert _OrbitActor(mod, p).monomial is not None
                fast = central_orbit_matrix_v0(mod, orbit, p)
                assert np.array_equal(fast, exact.at_v0() % p), (
                    kind, lam, p)


def test_supersingularity_on_non_generator_orbits():
    # the certificate samples generator orbits; spot-check that other
    # dominant orbits are nilpotent too on a classified module
    d = build_root_datum("C", 2)
    out = key_result_search(HeckeAlgebra(d))
    src = out.module.generic
    p = out.module.prime
    for lam in [(1, 1), (2, 0), (1, 2)]:
        mat = central_orbit_matrix_v0(src, d.weyl_orbit(lam), p)
        powered = np.linalg.matrix_power(mat, out.module.dim) % p
        assert not powered.any(), lam


def test_special_character_is_never_supersingular():
    for kind, rank, w in [("C", 2, 1), ("G", 2, 1), ("B", 3, [2, 1])]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        sp = next(c for c in enumerate_characters(H, "generic")
                  if c.is_special())
        mod = sp.as_module(H).reduce_mod_p(5)
        flag, entries = is_supersingular(mod)
        assert flag is False
        assert any(e["nilpotency_degree"] is None for e in entries["orbits"])


def test_supersingular_flag_shape():
    d = build_root_datum("D", 4)
    mod = reflection_module(d).star_twist().reduce_mod_p(5)
    flag, entries = is_supersingular(mod, exhaustive=True)
    assert flag is True
    assert entries["sampled"] is False
    assert all(e["nilpotent"] for e in entries["orbits"])
    assert all(e["nilpotency_degree"] <= mod.dim for e in entries["orbits"])


def _conjugated_c2_module():
    """The induced C2 module of the dense-route test, conjugated by an
    upper unitriangular matrix."""
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    bad = [c for c in enumerate_characters(H, "generic")
           if not character_extends(H, c)[0]]
    m = induce_character(H, bad[0])
    u = LaurentMatrix.from_rows([[[1, 1], [0, 1]]])
    u_inv = LaurentMatrix.from_rows([[[1, -1], [0, 1]]])
    return d, H, FinModule(H, u @ m.smats @ u_inv, u @ m.omega_mats @ u_inv,
                           name="conjugated induced module")


def test_dense_route_matches_exact_action_beyond_int64_products():
    # at p = 2^31 - 1 a product of two halves reduced mod p can exceed
    # int64, so the halves multiply on Python ints
    p = 2**31 - 1
    dd = build_root_datum("D", 4)
    Hd = HeckeAlgebra(dd)
    R = reflection_module(dd).star_twist()
    assert (p - 1) ** 2 * R.dim > 2**63 - 1
    d, H, conj = _conjugated_c2_module()
    cases = [(dd, Hd, R, g) for g in Hd.monoid_generators("effective")]
    cases += [(d, H, conj, lam) for lam in [(1, 0), (0, 2), (1, 1)]]
    for datum, alg, mod, lam in cases:
        assert _OrbitActor(mod, p).monomial is None
        orbit = datum.weyl_orbit(lam)
        exact = mod.act(alg.central_from_orbit(orbit))
        fast = central_orbit_matrix_v0(mod, orbit, p)
        assert np.array_equal(fast, exact.at_v0() % p), (datum, lam)


def test_dense_route_replays_words_of_generators_only(monkeypatch):
    """Every half of an orbit is a product of memoized halves: the dense
    route asks for the translation words of the monoid generators and
    their negatives, each once per orbit, and for no other point."""
    from heckelab import classify
    calls = []
    real = classify.translation_word

    def counted(datum, lam):
        calls.append(tuple(lam))
        return real(datum, lam)

    monkeypatch.setattr(classify, "translation_word", counted)
    d = build_root_datum("D", 5)
    H = HeckeAlgebra(d)
    R = reflection_module(H).star_twist()
    gens = set(H.monoid_generators("effective"))
    allowed = gens | {tuple(-x for x in g) for g in gens}
    for gen in sorted(gens):
        calls.clear()
        orbit = d.weyl_orbit(gen)
        central_orbit_matrix_v0(R, orbit, 5)
        assert calls and set(calls) <= allowed, gen
        assert len(calls) == len(set(calls)), gen


def test_monomial_route_replays_no_word(monkeypatch):
    """A summand on the monomial route reads hyperplane class counts and
    asks for no translation word."""
    from heckelab import classify, extweyl

    def refused(datum, lam):
        raise AssertionError(f"translation word of {lam} requested")

    modules = []
    for kind, rank, w, case in [("C", 3, [1, 1, 1], "Induced2Dim"),
                                ("F", 4, 1, "Character1Dim")]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        out = key_result_search(H)
        assert out.case == case
        modules.append((H, out.module))
    monkeypatch.setattr(classify, "translation_word", refused)
    monkeypatch.setattr(extweyl, "translation_word", refused)
    for H, fp in modules:
        src = fp.generic
        assert _OrbitActor(src, fp.prime).monomial is not None
        for gen in H.monoid_generators("effective"):
            mat = central_orbit_matrix_v0(src, H.datum.weyl_orbit(gen),
                                          fp.prime)
            assert mat.shape == (src.dim, src.dim)


def test_diagonal_entries_differing_within_a_class_take_the_dense_route():
    # the affine A2 nodes form one class; the braid relations would force
    # equal diagonal entries on them
    H = HeckeAlgebra(build_root_datum("A", 2))
    q, minus = ((H.q(0),),), ((-1,),)
    assert _OrbitActor(FinModule(H, (q, q, q), None), 5).monomial
    assert _OrbitActor(FinModule(H, (q, q, minus), None), 5).monomial is None


def test_nilpotency_degree_beyond_int64_products():
    # M = -a b^T with a . b = 0 has M^2 = 0; its entries p - 1 make an
    # entry of M @ M sum three products near 2^62, past int64
    from heckelab.classify import _nilpotency_degree
    p = 2**31 - 1
    a, b = np.ones(5, dtype=np.int64), np.array([1, 1, 1, -3, 0])
    mat = -np.outer(a, b) % p
    assert 3 * (p - 1) ** 2 > 2**63 - 1
    assert _nilpotency_degree(mat, p) == 2
    assert _nilpotency_degree(np.eye(5, k=1, dtype=np.int64) * (p - 1),
                              p) == 5
    assert _nilpotency_degree(mat + np.eye(5, dtype=np.int64), p) is None


def test_orbit_sum_near_the_largest_prime(monkeypatch):
    # 2^63 - 25 is the largest prime below 2^63: summands near p must
    # not wrap int64 while they add up
    p = 2**63 - 25
    d = build_root_datum("D", 4)
    R = reflection_module(d).star_twist()
    orbit = d.weyl_orbit((0, 0, 0, 1))
    exact = central_orbit_matrix_v0(R, orbit, p)
    monkeypatch.setattr(_OrbitActor, "orbit_terms",
                        lambda self, pts: np.full((len(pts), 5, 5), p - 1))
    assert (central_orbit_matrix_v0(R, orbit, p) == p - len(orbit)).all()
    monkeypatch.undo()
    H = HeckeAlgebra(d)
    assert np.array_equal(
        exact, R.act(H.central_from_orbit(orbit)).at_v0() % p)
