"""Discreteness exponents, supersingularity, and the classification
search over the supported table of data.

The truncated mod-p route for central matrices is cross-checked against
the exact symbolic action, including on orbits that are not monoid
generators, and the monomial route against the dense one."""

import numpy as np
import pytest

from heckelab import (
    FinModule,
    HeckeAlgebra,
    LaurentMatrix,
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
        flag, cert = is_discrete_character(H, ch, level="coroot")
        if flag:
            discrete.add(ch.label())
            assert all(row["exponent"] < 0 for row in cert["rows"])
    assert discrete == {"(-1, q, -1)", "(-1, -1, q)", "(-1, -1, -1)"}


def test_discreteness_flags_b3_unhandled_decoration():
    H = HeckeAlgebra(build_root_datum("B", 3, weights=[1, 2]))
    flags = {ch.label(): is_discrete_character(H, ch, level="coroot")[0]
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
        assert not is_discrete_character(H, trivial, level="coroot")[0]
        assert is_discrete_character(H, special, level="coroot")[0]


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


def test_search_respects_prime():
    out = key_result_search(HeckeAlgebra(build_root_datum("G", 2)), p=11)
    assert out.module.prime == 11
    assert out.case == "Character1Dim"


def test_truncated_route_matches_exact_action():
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    bad = [c for c in enumerate_characters(H, "generic")
           if not character_extends(H, c)[0]]
    m = induce_character(H, bad[0])
    # (1,1) and (2,2) are regular orbits, not monoid generators; 999983 is
    # the largest prime the truncated route accepts
    for lam in [(1, 0), (0, 2), (1, 1), (2, 2)]:
        orbit = d.weyl_orbit(lam)
        exact = m.act(H.central_from_orbit(orbit))
        for p in (7, 999983):
            fast = central_orbit_matrix_v0(m, orbit, p)
            ex = exact.at_v0() % p
            assert np.array_equal(fast, ex), (lam, p)

    dd = build_root_datum("D", 4)
    Hd = HeckeAlgebra(dd)
    R = reflection_module(dd).star_twist()
    for lam in [(1, 0, 0, 0), (0, 1, 0, 0)]:
        orbit = dd.weyl_orbit(lam)
        exact = R.act(Hd.central_from_orbit(orbit))
        for p in (5, 999983):
            fast = central_orbit_matrix_v0(R, orbit, p)
            ex = exact.at_v0() % p
            assert np.array_equal(fast, ex), (lam, p)


def test_monomial_route_matches_dense_route():
    # every orbit summand of every generator orbit the certificates use,
    # with the dense route called directly as the reference
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
            for p in (5, 7, 999983):
                actor = _OrbitActor(src, p)
                assert actor.monomial is not None, (kind, rank, w)
                for lam in orbit:
                    assert np.array_equal(actor._monomial_term(lam),
                                          actor._dense_term(lam)), (
                        kind, rank, w, lam, p)
    # all but the four type-A rows with equal weights
    assert checked == len(MONOMIAL_ROWS) - 4


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
    assert _monomial_entries(LaurentMatrix.from_rows(
        [[[0, 3], [-1, 0]]])) == [([1, 0], [3, -1], [0, 0])]
    for lam in [(1, 0), (0, 2), (1, 1)]:
        orbit = d.weyl_orbit(lam)
        exact = conj.act(H.central_from_orbit(orbit))
        for p in (5, 7):
            assert _OrbitActor(conj, p).monomial is None
            fast = central_orbit_matrix_v0(conj, orbit, p)
            assert np.array_equal(fast, exact.at_v0() % p), (lam, p)


def test_special_character_route_matches_exact_action():
    # the criterion-6 path: a character without length-zero action,
    # whose orbits run over the coroot lattice
    for kind, rank, lams in [("C", 2, [(0, 2), (2, 0), (2, 2)]),
                             ("G", 2, [(1, 0), (0, 1), (1, 1)])]:
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
