"""Discreteness exponents, supersingularity, and the classification
search over the supported table of data.

The exact mod-p routes for central matrices are cross-checked against
the exact symbolic action, including on orbits that are not monoid
generators: the monomial route against a per-point replay of translation
words, and the central-character route of the dense modules against the
exact action, with its full scalar, and against a committed table."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import (
    FinModule,
    HeckeAlgebra,
    Laurent,
    LaurentMatrix,
    NotAFullOrbit,
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
    translation_word,
)
from heckelab.classify import _OrbitActor, _certificate, _monomial_entries
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


def test_every_readme_datum_answers():
    # A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4 and G2 with equal weights, in
    # process; the acceptance table's verdict where it lists the datum
    from test_acceptance import TABLE
    expected = {(k, r): case for k, r, w, case, _ in TABLE
                if w == 1 or len(set(w)) == 1}
    data = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
            + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
            + [("E", r) for r in (6, 7, 8)] + [("F", 4), ("G", 2)])
    assert len(data) == 33
    for kind, rank in data:
        out = key_result_search(HeckeAlgebra(build_root_datum(kind, rank)))
        assert out.case in ("Character1Dim", "Induced2Dim", "ReflectionTwist",
                            "ExcludedTypeA"), (kind, rank, out.case)
        assert out.case == expected.get((kind, rank), out.case), (kind, rank)
        if out.module is not None:
            assert out.certificate["supersingular_mod_p"]["nilpotent"], (
                kind, rank)
    assert len(expected) == 16


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
    ("C2"), the same conjugated by an upper unitriangular matrix ("C2
    conjugated") or the twisted D4 reflection module ("D4")."""
    if name == "C2 conjugated":
        _, H, conj = _conjugated_c2_module()
        return H, conj
    if name == "C2":
        H = HeckeAlgebra(build_root_datum("C", 2))
        bad = [c for c in enumerate_characters(H, "generic")
               if not character_extends(H, c)[0]]
        return H, induce_character(H, bad[0])
    H = HeckeAlgebra(build_root_datum("D", 4))
    return H, reflection_module(H).star_twist()


@functools.cache
def _exact_action(name, lam):
    """The matrix of the central sum over the Weyl orbit of ``lam`` on
    :func:`_orbit_module` ``name``, by the exact route (``FinModule.act``
    on ``central_from_orbit``), computed once."""
    H, mod = _orbit_module(name)
    return mod.act(H.central_from_orbit(H.datum.weyl_orbit(lam)))


def _exact_at_v0(name, lam):
    """:func:`_exact_action` at v = 0."""
    return _exact_action(name, lam).at_v0()


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
    """The orbit route (monomial on C2, the central character on D4)
    and the exact action of the central element agree at any prime below
    2^31, each orbit's exact matrix computed once."""
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


def _replayed_terms(mod, orbit):
    """The per-point dense oracle: at each point of ``orbit``, the exact
    coefficient of v^delta in rho(T*_{t+}) rho(T_{t-}) for the point's own
    split, each half the length-zero matrix of its translation times the
    generator matrices replayed letter by letter along its translation
    word."""
    H, n = mod.alg, mod.dim
    level = "coroot" if mod.omega_mats is None else "effective"
    plus, minus, _, _, delta = H.bernstein_split(orbit, level)
    star = mod.smats - mod.q_stack() + LaurentMatrix.identity(n)

    @functools.cache
    def half(lam, twisted):
        m = (LaurentMatrix.identity(n) if mod.omega_mats is None
             else mod.omega_mats[H.omega.translation_indices([lam])[0]])
        for s in translation_word(H.datum, lam):
            m = m @ (star if twisted else mod.smats)[s]
        return m

    terms = []
    for a, b, e in zip(map(tuple, plus.tolist()),
                       map(tuple, (-minus).tolist()), delta.tolist()):
        prod = half(a, True) @ half(b, False)
        c = prod.coeffs.reshape(-1, n, n)
        k = e - prod.lo
        terms.append(c[k] if 0 <= k < len(c) else np.zeros((n, n), int))
    return np.array(terms, dtype=object)


def test_monomial_route_matches_dense_route():
    # every orbit summand of every generator orbit the certificates use:
    # row by row, the monomial route's stack against the per-point dense
    # oracle, each point replaying the words of its own split
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
        for gen in dominant_monoid_generators(d, lattice):
            orbit = d.weyl_orbit(gen)
            replayed = _replayed_terms(src, orbit)
            for p in (5, 7, 999983):
                actor = _OrbitActor(src, p)
                assert actor.monomial is not None, (kind, rank, w)
                stack = actor.orbit_terms(orbit)
                assert stack.shape == (len(orbit), src.dim, src.dim)
                assert np.array_equal(stack, replayed % p), (
                    kind, rank, w, gen, p)
    # all but the four type-A rows with equal weights
    assert checked == len(MONOMIAL_ROWS) - 4


def test_monomial_route_matches_the_central_character():
    # characters and most induced answers also certify; their orbit sums
    # on the monomial route are then c_0 times the identity
    certified = 0
    for kind, rank, w in MONOMIAL_ROWS:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        out = key_result_search(H)
        if out.module is None or _certificate(out.module.generic) is None:
            continue
        certified += 1
        src, d = out.module.generic, H.datum
        level = "coroot" if src.omega_mats is None else "effective"
        for gen in H.monoid_generators(level):
            orbit = np.array(d.weyl_orbit(gen))
            c0 = _certificate(src).scalar(orbit).constant_term()
            for p in (5, 999983):
                assert np.array_equal(
                    central_orbit_matrix_v0(src, orbit, p),
                    c0 % p * np.eye(src.dim, dtype=np.int64)), (
                    kind, rank, w, gen, p)
    # the induced answers on C3 and C5 [1, 2, 2] have a generator acting
    # by an antidiagonal matrix with eigenvalues +-i v^k: no weight over
    # Z[v^-1, v]
    assert certified == len(MONOMIAL_ROWS) - 4 - 4


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
    # keeps the relations but fills in off-diagonal entries; the module
    # stays irreducible, so it takes the central-character route
    d, H, conj = _conjugated_c2_module()
    conj.check_relations()
    assert _certificate(conj) is not None
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
        exact = _exact_at_v0("C2 conjugated", lam)
        for p in (5, 7):
            assert _OrbitActor(conj, p).monomial is None
            fast = central_orbit_matrix_v0(conj, orbit, p)
            assert np.array_equal(fast, exact % p), (lam, p)


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


@functools.cache
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
    # at p = 2^31 - 1 the square of an entry reduced mod p exceeds
    # int64 in an n = 5 product; the central character reduces one
    # integer c_0 instead, and the exact action runs on Python ints
    p = 2**31 - 1
    Hd, R = _orbit_module("D4")
    assert (p - 1) ** 2 * R.dim > 2**63 - 1
    H, conj = _orbit_module("C2 conjugated")
    cases = [("D4", Hd, R, g) for g in Hd.monoid_generators("effective")]
    cases += [("C2 conjugated", H, conj, lam)
              for lam in [(1, 0), (0, 2), (1, 1)]]
    for name, alg, mod, lam in cases:
        assert _OrbitActor(mod, p).monomial is None
        assert _certificate(mod) is not None
        fast = central_orbit_matrix_v0(mod, alg.datum.weyl_orbit(lam), p)
        assert np.array_equal(fast, _exact_at_v0(name, lam) % p), (
            name, lam)


def test_central_character_matches_exact_action():
    # the full scalar c(v), not only its constant term, on every
    # generator orbit of the twisted D4 reflection module and on small
    # orbits of the conjugated C2 module
    cases = [("D4", g) for g in _orbit_module("D4")[0].monoid_generators(
        "effective")]
    cases += [("C2 conjugated", lam) for lam in [(1, 0), (0, 2), (1, 1)]]
    for name, lam in cases:
        H, mod = _orbit_module(name)
        c = _certificate(mod).scalar(np.array(H.datum.weyl_orbit(lam)))
        scalar = LaurentMatrix.from_rows(
            [[[c if i == j else 0 for j in range(mod.dim)]
              for i in range(mod.dim)]])[0]
        assert not ((_exact_action(name, lam) - scalar).coeffs != 0).any(), (
            name, lam, c)
    # on D4 the constant term is 0 and the scalar is not
    assert str(_certificate(_orbit_module("D4")[1]).scalar(np.array(
        build_root_datum("D", 4).weyl_orbit((1, 0, 0, 0))))) == (
        "v^2 + 2*v^4 + 2*v^6 + 2*v^8 + v^10")


# Per datum, the generator orbits of the twisted reflection module that
# is_supersingular walks (every one on D4-D6 and E6, the sampled one on
# E7 and E8): generator, orbit size, c_0 and the lowest exponent of c(v).
# These matched the orbit matrices of the per-point dense route this route
# replaced, at p = 5, 7, 999983 and 2^31 - 1.
C0_TABLE = {
    ("D", 4): [((0, 0, 0, 1), 8, 0, 2), ((0, 0, 1, 0), 8, 0, 2),
               ((0, 1, 0, 0), 24, 0, 4), ((1, 0, 0, 0), 8, 0, 2)],
    ("D", 5): [((0, 0, 0, 0, 1), 16, 0, 3), ((0, 0, 0, 1, 0), 16, 0, 3),
               ((0, 0, 1, 0, 0), 80, 0, 6), ((0, 1, 0, 0, 0), 40, 0, 4),
               ((1, 0, 0, 0, 0), 10, 0, 2)],
    ("D", 6): [((0, 0, 0, 0, 0, 1), 32, 0, 4), ((0, 0, 0, 0, 1, 0), 32, 0, 4),
               ((0, 0, 0, 1, 0, 0), 240, 0, 8),
               ((0, 0, 1, 0, 0, 0), 160, 0, 6),
               ((0, 1, 0, 0, 0, 0), 60, 0, 4), ((1, 0, 0, 0, 0, 0), 12, 0, 2)],
    ("E", 6): [((0, 0, 0, 0, 0, 1), 27, 0, 4), ((0, 0, 0, 0, 1, 0), 216, 0, 8),
               ((0, 0, 0, 1, 0, 0), 720, 0, 12),
               ((0, 0, 1, 0, 0, 0), 216, 0, 8), ((0, 1, 0, 0, 0, 0), 72, 0, 6),
               ((1, 0, 0, 0, 0, 0), 27, 0, 4)],
    ("E", 7): [((0, 0, 0, 0, 0, 0, 1), 56, 0, 6)],
    ("E", 8): [((0, 0, 0, 0, 0, 0, 0, 1), 240, 0, 12)],
}


def test_central_character_table():
    for (kind, rank), rows in C0_TABLE.items():
        d = build_root_datum(kind, rank)
        R = reflection_module(d).star_twist()
        cert = _certificate(R)
        assert cert is not None, (kind, rank)
        fp = R.reduce_mod_p(5)
        walked = [tuple(e["orbit"]) for e in is_supersingular(
            fp, exhaustive=rank <= 6)[1]["orbits"]]
        assert walked == [row[0] for row in rows], (kind, rank)
        for gen, size, c0, low in rows:
            orbit = np.array(d.weyl_orbit(gen))
            c = cert.scalar(orbit)
            assert (len(orbit), c.constant_term(), c.min_exp()) == (
                size, c0, low), (kind, rank, gen)
            for p in (5, 7, 999983, 2**31 - 1):
                assert np.array_equal(
                    central_orbit_matrix_v0(R, orbit, p),
                    c0 % p * np.eye(R.dim, dtype=np.int64)), (gen, p)


def test_certificate_refuses_a_reducible_module():
    # a direct sum of two distinct characters, conjugated so that it is
    # not monomial: its commutant holds every diagonal matrix, so it takes
    # the exact route
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    chars = enumerate_characters(H, "generic")
    a, b = chars[1].as_module(H), chars[2].as_module(H)
    assert chars[1] != chars[2]
    u = LaurentMatrix.from_rows([[[1, 1], [0, 1]]])[0]
    u_inv = LaurentMatrix.from_rows([[[1, -1], [0, 1]]])[0]
    diag = LaurentMatrix.from_rows(
        [[[a.smats.entry(s, 0, 0), 0], [0, b.smats.entry(s, 0, 0)]]
         for s in range(d.rank + 1)])
    mod = FinModule(H, u @ diag @ u_inv, None, name="sum of two characters")
    mod.check_relations()
    assert _OrbitActor(mod, 5).monomial is None
    assert _certificate(mod) is None
    for lam in [(0, 2), (2, 0)]:
        orbit = d.weyl_orbit(lam)
        exact = mod.act(H.central_from_orbit(orbit))
        for p in (5, 7):
            fast = central_orbit_matrix_v0(mod, orbit, p)
            assert np.array_equal(fast, exact.at_v0() % p), (lam, p)


def test_reflection_modules_certify():
    # the twisted reflection modules of D4-D8 and E6-E8, and the
    # conjugated induced C2 module
    for kind, rank in [("D", r) for r in range(4, 9)] + [
            ("E", r) for r in (6, 7, 8)]:
        R = reflection_module(build_root_datum(kind, rank)).star_twist()
        assert _certificate(R) is not None, (kind, rank)
    assert _certificate(_orbit_module("C2 conjugated")[1]) is not None


def test_module_without_length_zero_action_takes_the_central_character():
    # the twisted A3 reflection module restricted to the non-extended
    # algebra has no length-zero action, is not monomial and still has
    # only scalars in its commutant: its certificate replays the words of
    # the coroot generators with no length-zero factor, and matches the
    # exact action on every generator orbit, c(v) in full and c_0 mod p
    d = build_root_datum("A", 3)
    H = HeckeAlgebra(d)
    R = reflection_module(H).star_twist()
    mod = FinModule(H, R.smats, None, name="restricted reflection module")
    mod.check_relations()
    assert _OrbitActor(mod, 5).monomial is None
    cert = _certificate(mod)
    assert cert is not None
    for lam in H.monoid_generators("coroot"):
        orbit = d.weyl_orbit(lam)
        exact = mod.act(H.central_from_orbit(orbit))
        c = cert.scalar(np.array(orbit))
        scalar = LaurentMatrix.from_rows(
            [[[c if i == j else 0 for j in range(mod.dim)]
              for i in range(mod.dim)]])[0]
        assert not ((exact - scalar).coeffs != 0).any(), (lam, c)
        for p in (5, 7):
            fast = central_orbit_matrix_v0(mod, orbit, p)
            assert np.array_equal(fast, exact.at_v0() % p), (lam, p)
    flag, entries = is_supersingular(mod.reduce_mod_p(5), exhaustive=True)
    assert flag and len(entries["orbits"]) == len(
        H.monoid_generators("coroot"))


def test_orbit_matrix_refuses_a_stack_that_is_not_one_orbit():
    # the closed form sums a central character over the stack, so it
    # would answer silently on any other stack; so would the monomial
    # route on the induced C2 module
    for name, lam, other in [("D4", (1, 0, 0, 0), (0, 1, 0, 0)),
                             ("C2", (1, 0), (0, 2))]:
        H, mod = _orbit_module(name)
        orbit = list(H.datum.weyl_orbit(lam))
        for bad in [orbit[:-1], orbit + orbit[:1],
                    orbit + list(H.datum.weyl_orbit(other)), []]:
            with pytest.raises(NotAFullOrbit):
                central_orbit_matrix_v0(mod, bad, 5)
        assert central_orbit_matrix_v0(mod, orbit[::-1], 5).shape == (
            mod.dim, mod.dim)


def test_dense_route_replays_words_of_generators_only(monkeypatch):
    """The central character of a module asks for the translation word of
    each monoid generator once, and for no other point: an exhaustive D5
    run, at two primes, replays each generator's word once."""
    from heckelab import classify, extweyl
    calls = []
    real = classify.translation_word

    def counted(datum, lam):
        calls.append(tuple(lam))
        return real(datum, lam)

    monkeypatch.setattr(classify, "translation_word", counted)
    monkeypatch.setattr(extweyl, "translation_word", counted)
    d = build_root_datum("D", 5)
    H = HeckeAlgebra(d)
    R = reflection_module(H).star_twist()
    for p in (5, 7):
        flag, info = is_supersingular(R.reduce_mod_p(p), exhaustive=True)
        assert flag and len(info["orbits"]) == 5
    assert sorted(calls) == sorted(H.monoid_generators("effective"))


def test_reflection_path_multiplies_no_hecke_elements(monkeypatch):
    # the reflection answer certifies, so its orbits take no exact action
    from heckelab import HeckeElt
    calls = []
    for name in ("__mul__", "_product"):
        real = getattr(HeckeElt, name)
        monkeypatch.setattr(HeckeElt, name, lambda self, *a, real=real, **k:
                            calls.append(name) or real(self, *a, **k))
    for rank in (4, 5, 6):
        out = key_result_search(HeckeAlgebra(build_root_datum("D", rank)),
                                exhaustive=True)
        assert out.case == "ReflectionTwist"
        assert out.certificate["supersingular_mod_p"]["nilpotent"]
    assert calls == []


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
    # 2^63 - 25 is the largest prime below 2^63: monomial summands near p
    # must not wrap int64 while they add up, and the central character of
    # the D4 reflection module reduces mod p like the exact action
    p = 2**63 - 25
    H, induced = _orbit_module("C2")
    orbit = H.datum.weyl_orbit((1, 0))
    monkeypatch.setattr(_OrbitActor, "orbit_terms",
                        lambda self, pts: np.full((len(pts), 2, 2), p - 1))
    assert (central_orbit_matrix_v0(induced, orbit, p)
            == p - len(orbit)).all()
    monkeypatch.undo()
    Hd, R = _orbit_module("D4")
    lam = (0, 0, 0, 1)
    exact = central_orbit_matrix_v0(R, Hd.datum.weyl_orbit(lam), p)
    assert np.array_equal(exact, _exact_at_v0("D4", lam) % p)
