"""Discreteness exponents, supersingularity, and the classification
search over the supported table of data.

The central character that gives the matrices of central orbit sums is
cross-checked against the exact symbolic action, with its full scalar
from the dense oracle, including on orbits that are not monoid
generators: against the action of the central element built in the
Hecke algebra, against the same action summed point by point along
translation words, and against a committed table.  Its commutant test
and its constant terms are checked against the oracles of
``geom_oracle``."""

import functools
import itertools
import random
import subprocess
import sys
from fractions import Fraction

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
    UncertifiedModule,
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
from heckelab.classify import (CERT_I, CERT_Q, _CentralCharacter,
                               _certificate,
                               _class_count_weights, _commutant_is_scalar,
                               _eigen_column, _replayed_weights)
from heckelab.intlin import is_prime
from geom_oracle import (commutant_dimension, dense_central_scalar,
                         lattice_pairing, stacked_eigen_column)

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

# the acceptance rows outside types D and E, the classify workload's table:
# answered by characters, extended characters or induced modules (all
# monomial: every row and column holds one unit +-v^e), or excluded
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


@functools.cache
def _readme_outcomes():
    """``(kind, rank, outcome)`` of the search on A1-A8, B2-B8, C2-C8,
    D3-D8, E6-E8, F4 and G2 with equal weights, each searched once."""
    data = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
            + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
            + [("E", r) for r in (6, 7, 8)] + [("F", 4), ("G", 2)])
    return [(kind, rank, key_result_search(HeckeAlgebra(build_root_datum(
        kind, rank)))) for kind, rank in data]


def test_every_readme_datum_answers():
    # every datum of the README range with equal weights, in process; the
    # acceptance table's verdict where it lists the datum
    from test_acceptance import TABLE
    expected = {(k, r): case for k, r, w, case, _ in TABLE
                if w == 1 or len(set(w)) == 1}
    assert len(_readme_outcomes()) == 33
    for kind, rank, out in _readme_outcomes():
        assert out.case in ("Character1Dim", "Induced2Dim", "ReflectionTwist",
                            "ExcludedTypeA"), (kind, rank, out.case)
        assert out.case == expected.get((kind, rank), out.case), (kind, rank)
        if out.module is not None:
            assert out.certificate["supersingular_mod_p"]["nilpotent"], (
                kind, rank)
    assert len(expected) == 16


def test_search_takes_a_numpy_prime():
    """A numpy integer prime is taken as the int it holds: the module
    stores a Python int and the answer is that of the plain int."""
    d = build_root_datum("C", 2, weights=[1, 2, 2])
    out = key_result_search(d, p=np.int64(5))
    assert type(out.module.prime) is int and out.module.prime == 5
    assert out.certificate == key_result_search(d, p=5).certificate
    with pytest.raises(ValueError):
        key_result_search(d, p=np.int64(9))


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


def test_monoid_generators_computed_once_per_level(monkeypatch,
                                                  fresh_frames):
    """The search asks for coroot generators once per character and for
    effective ones in discreteness and supersingularity; the algebra
    computes each level once (in a fresh frame)."""
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


def test_certificate_field_holds_a_square_root_of_minus_one():
    """$F_q$ for ``CERT_Q`` holds ``CERT_I``, a square root of $-1$, and a
    product of two $n \\times n$ matrices over it stays in int64 for
    every $n < 8192$."""
    assert is_prime(CERT_Q) and CERT_Q % 4 == 1
    assert CERT_I * CERT_I % CERT_Q == CERT_Q - 1
    assert (CERT_Q - 1) ** 2 * 8191 < 2**63


#: Each argument check of the search's building blocks, run on its wrong
#: argument: one line per call, "refused" for a ValueError and "mismatch"
#: for a DatumMismatch.
REFUSALS = """
import sys
from heckelab import (Character, DatumMismatch, HeckeAlgebra,
                      build_root_datum, central_orbit_matrix_v0,
                      character_extends, decompose_at_v0, induce_character,
                      is_discrete_character, is_supersingular,
                      key_result_search, translation_exponent)

d = build_root_datum("C", 2)
b3 = HeckeAlgebra(build_root_datum("B", 3))
answer = key_result_search(d).module
modp = Character.modp(d, (0, -1, 0))
generic = Character.generic(d, (1, 1, 1))
calls = [lambda: central_orbit_matrix_v0(answer, d.weyl_orbit((1, 0)), 5),
         lambda: is_supersingular(answer.generic),
         lambda: is_discrete_character(d, modp),
         lambda: character_extends(d, modp),
         lambda: induce_character(d, modp),
         lambda: translation_exponent(b3, generic, (1, 0, 0)),
         lambda: translation_exponent(HeckeAlgebra(d), modp, (1, 0)),
         lambda: modp.sign_on_class(0),
         lambda: modp.sign_on_node(0),
         lambda: modp.with_omega_signs((1, 1)),
         lambda: modp.compose_with_node_permutation((2, 1, 0)),
         lambda: modp.reduce(),
         lambda: answer.star_twist(),
         lambda: answer.act(answer.alg.one()),
         lambda: answer.generic.act(b3.one()),
         lambda: decompose_at_v0(answer)]
for call in calls:
    try:
        call()
        print("answered")
    except ValueError:
        print("refused")
    except DatumMismatch:
        print("mismatch")
print("optimize", sys.flags.optimize)
"""


def test_argument_checks_survive_assertions_stripped():
    """Under ``python -O`` too, which strips ``assert``, the building
    blocks refuse a mod-$p$ argument where they need a generic or Laurent
    one (the central action, discreteness, extension, induction, the
    translation exponent, the sign reads of a character, the star twist,
    the exact action and the split at $v = 0$) and a Laurent module for
    the supersingularity test with ``ValueError``, and a character or an
    element of another datum with ``DatumMismatch``."""
    from test_cli import child_env
    done = subprocess.run([sys.executable, "-O", "-c", REFUSALS],
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == (
        ["refused"] * 5 + ["mismatch"] + ["refused"] * 8 + ["mismatch"]
        + ["refused", "optimize 1", ""])


def test_discreteness_reads_the_class_counts_kept_per_level(monkeypatch,
                                                            fresh_frames):
    """The exponent tables of every character of C3 [1, 2, 2] and of
    their extensions read the class counts the algebra keeps beside the
    generators of each level: one count of the hyperplanes per level,
    read-only and equal to a fresh count (in a fresh frame)."""
    from heckelab.rootdata import RootDatum
    H = HeckeAlgebra(build_root_datum("C", 3, weights=[1, 2, 2]))
    real, calls = RootDatum.translation_class_counts, []
    monkeypatch.setattr(RootDatum, "translation_class_counts",
                        lambda d, lam: calls.append(len(lam)) or real(d, lam))
    tables = 0
    for ch in enumerate_characters(H, "generic"):
        for c in (ch,) + character_extends(H, ch)[1]:
            is_discrete_character(H, c)
            tables += 1
    assert tables > 8 and len(calls) == 2
    for level in ("coroot", "effective"):
        counts = H.generator_class_counts(level)
        assert counts is H.generator_class_counts(level)
        assert not counts.flags.writeable
        assert (counts == real(H.datum, np.array(
            H.monoid_generators(level)))).all()


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
                 lambda: H.datum.weyl_orbit((1, 0, 0)),
                 lambda: central_orbit_matrix_v0(induced, [(1, 0, 0, 1)],
                                                 5)]:
        with pytest.raises(ValueError, match="rank-2 datum has 2 "
                                             "coordinates"):
            call()


def test_central_orbit_matrix_refuses_what_is_not_a_prime_below_2_63():
    # on the extension module of C2 [1, 2, 2] these once read [[3]],
    # [[0]], [[-1]] and [[1.5]], or raised ZeroDivisionError (p = 0) and
    # OverflowError (p = 2^70)
    src = key_result_search(build_root_datum(
        "C", 2, weights=[1, 2, 2])).module.generic
    orbit = src.alg.datum.weyl_orbit(src.alg.monoid_generators(
        "effective")[0])
    assert central_orbit_matrix_v0(src, orbit, 5).tolist() == [[0]]
    for p in (4, 0, -5, 2.5, True, 2**70, 2**64 - 59, "5", None):
        with pytest.raises(ValueError, match="prime below 2\\^63"):
            central_orbit_matrix_v0(src, orbit, p)


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


def _replayed_action(mod, orbit):
    """The exact action of the central sum over ``orbit`` on ``mod``, point
    by point: the sum of v^-delta rho(T*_{t+}) rho(T_{t-}) over the points'
    own splits, each half the length-zero matrix of its translation times
    the generator matrices replayed letter by letter along its translation
    word."""
    H, n = mod.alg, mod.dim
    level = "coroot" if mod.omega_mats is None else "effective"
    plus, minus, delta = H.bernstein_split(orbit, level)
    star = mod.smats - mod.q_stack() + LaurentMatrix.identity(n)

    @functools.cache
    def half(lam, twisted):
        m = (LaurentMatrix.identity(n) if mod.omega_mats is None
             else mod.omega_mats[H.omega.translation_indices([lam])[0]])
        for s in translation_word(H.datum, lam):
            m = (m @ (star if twisted else mod.smats)[s]).trim()
        return m

    total = LaurentMatrix(0, np.zeros((1, n, n), dtype=np.int64))
    for a, b, e in zip(map(tuple, plus.tolist()),
                       map(tuple, (-minus).tolist()), delta.tolist()):
        prod = half(a, True) @ half(b, False)
        total = total + LaurentMatrix(prod.lo - e, prod.coeffs)
    return total


def _v0(mats):
    """The v^0 coefficient of one Laurent matrix, poles or not."""
    k = -mats.lo
    c = mats.coeffs
    return c[k] if 0 <= k < len(c) else np.zeros(c.shape[1:], dtype=int)


def _scalar_matrix(c, n):
    """``c`` times the n x n identity, as one Laurent matrix."""
    return LaurentMatrix.from_rows(
        [[[c if i == j else 0 for j in range(n)] for i in range(n)]])[0]


def _same(a, b):
    """Equality of two Laurent matrices, coefficient by coefficient."""
    return not ((a - b).coeffs != 0).any()


def _answers(rows):
    """``(algebra, Laurent module)`` of every answer with a module among
    ``rows`` of (kind, rank, weights)."""
    out = []
    for kind, rank, w in rows:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        found = key_result_search(H)
        if found.module is not None:
            out.append((H, found.module.generic))
    return out


def test_orbit_matrix_matches_replayed_summands():
    # every generator orbit of every answer of the classify table: c(v)
    # against the exact action summed point by point, each point replaying
    # the words of its own split, and the orbit matrix against its v^0
    # coefficient
    answers = _answers(MONOMIAL_ROWS)
    for H, src in answers:
        level = "coroot" if src.omega_mats is None else "effective"
        for gen in H.monoid_generators(level):
            orbit = H.datum.weyl_orbit(gen)
            exact = _replayed_action(src, orbit)
            c = dense_central_scalar(_certificate(src), np.array(orbit))
            assert _same(exact, _scalar_matrix(c, src.dim)), (H, gen)
            for p in (5, 7, 2**31 - 1):
                assert np.array_equal(central_orbit_matrix_v0(src, orbit, p),
                                      _v0(exact) % p), (H, gen, p)
    # all but the four type-A rows with equal weights
    assert len(answers) == len(MONOMIAL_ROWS) - 4


def test_every_answer_certifies():
    # every answer of the classify table has a central character, the
    # induced answers whose generators have eigenvalues +-i v^k included
    certified, odd = 0, []
    for row in MONOMIAL_ROWS:
        for _, src in _answers([row]):
            cert = _certificate(src)
            assert cert is not None, row
            certified += 1
            if (lattice_pairing(cert)[:, 1] % 2).any():
                odd.append(row)
    assert certified == len(MONOMIAL_ROWS) - 4
    assert odd == [("C", 3, [1, 1, 1]), ("C", 3, [1, 2, 2]),
                   ("C", 3, [2, 3, 3]), ("C", 5, [1, 2, 2])]


def test_central_character_with_imaginary_weights_matches_exact_action():
    # C3 [1, 1, 1] and [1, 2, 2] answer with induced modules whose
    # generators act with eigenvalues +-i v^k: c(v) against the action of
    # the central element built in the Hecke algebra, coefficient by
    # coefficient, on every generator orbit
    for w in ([1, 1, 1], [1, 2, 2]):
        (H, src), = _answers([("C", 3, w)])
        cert = _certificate(src)
        assert (lattice_pairing(cert)[:, 1] % 2).any()
        for gen in H.monoid_generators("effective"):
            orbit = H.datum.weyl_orbit(gen)
            exact = src.act(H.central_from_orbit(orbit))
            c = dense_central_scalar(cert, np.array(orbit))
            assert _same(exact, _scalar_matrix(c, src.dim)), (w, gen, c)


def test_constant_term_matches_exact_action_on_small_orbits():
    # the smallest generator orbit of every answer of the acceptance
    # table: c_0 mod p against the exact action, built in the Hecke
    # algebra (on a 2-vCPU box, Python 3.11: 0.05 s on C4's 8 points,
    # 0.13-0.22 s on C5's 10, 0.03 s on D4, 0.12 s on D5, 1.5 s on F4's
    # 24) and summed point by point on E6 and E7, where that product
    # takes 11 s on E6's 27 points and on E7's 56 raises MemoryError
    # under a 2 GB address-space cap; E8 is left out, its smallest orbit
    # has 240 points
    from test_acceptance import TABLE
    answers = _answers([(k, r, w) for k, r, w, _, _ in TABLE
                        if (k, r) != ("E", 8)])
    assert len(answers) == 24
    for H, src in answers:
        d = H.datum
        level = "coroot" if src.omega_mats is None else "effective"
        gen = min(H.monoid_generators(level),
                  key=lambda g: (len(d.weyl_orbit(g)),
                                 d.translation_weighted_length(g)))
        orbit = d.weyl_orbit(gen)
        exact = (_replayed_action(src, orbit) if d.kind == "E"
                 else src.act(H.central_from_orbit(orbit)))
        c0 = _certificate(src).constant_term(np.array(orbit))
        for p in (5, 7, 2**31 - 1):
            assert np.array_equal(
                central_orbit_matrix_v0(src, orbit, p),
                c0 % p * np.eye(src.dim, dtype=np.int64)), (H, gen, p)
            assert np.array_equal(_v0(exact) % p,
                                  c0 % p * np.eye(src.dim, dtype=np.int64))


def test_one_dim_weights_read_off_class_counts():
    # on every generic character of every datum of the acceptance table
    # and on each of its extensions: the weights read off the class counts
    # equal the replayed ones, and k_g - L(g) is minus the discreteness
    # exponent of g (E_g acts by 1 on a node acting by q_s and by -q_s on
    # one acting by -1)
    from test_acceptance import TABLE
    checked = 0
    for kind, rank, w, _, _ in TABLE:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        d = H.datum
        for ch in enumerate_characters(H, "generic"):
            for c in (ch, *character_extends(H, ch)[1]):
                mod = c.as_module(H)
                level = "coroot" if c.omega_signs is None else "effective"
                gens = H.monoid_generators(level)
                counts = d.translation_class_counts(np.array(gens))
                weights = _class_count_weights(mod, gens, counts)
                assert weights == _replayed_weights(mod, gens), (d, c)
                table = is_discrete_character(H, c)[1]
                assert [row["generator"] for row in table["rows"]] == [
                    list(g) for g in gens]
                assert [k - d.translation_weighted_length(g)
                        for g, (_, k) in zip(gens, weights)] == [
                    -row["exponent"] for row in table["rows"]], (d, c)
                assert {t for t, _ in weights} <= {0, 2}
                checked += 1
    assert checked > 100


def test_monomial_modules_at_the_largest_prime():
    # at 2^63 - 25, the largest prime below 2^63, on a character over the
    # coroot lattice (B3's special character, whose (0, 1, 0) orbit splits
    # with a shift) and on the induced C2 answer over the effective
    # lattice
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
    for d, H, mod, lams in cases:
        for lam in lams:
            orbit = d.weyl_orbit(lam)
            fast = central_orbit_matrix_v0(mod, orbit, p)
            exact = mod.act(H.central_from_orbit(orbit)).at_v0() % p
            assert np.array_equal(fast, exact), (d, lam)


def test_regular_length_zero_action_is_refused():
    # scalar T_s on A3 with the regular representation of its Z/4 of
    # length-zero elements: the length-zero matrices commute with every
    # matrix of the module, so it has no certificate and its orbit
    # matrices are refused.  The exact action, asked for explicitly, shows
    # why no c_0 I could answer: each orbit sum acts at v = 0 as a signed
    # permutation that is not a scalar
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
        with pytest.raises(UncertifiedModule,
                           match="commutant not certified scalar"):
            _certificate(mod)
        for lam in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            orbit = d.weyl_orbit(lam)
            exact = mod.act(H.central_from_orbit(orbit)).at_v0()
            assert (np.abs(exact).sum(axis=0) == 1).all(), (value, lam)
            assert np.diagonal(exact).tolist() == [0] * n, (value, lam)
            for p in (5, 2**63 - 25):
                with pytest.raises(UncertifiedModule, match="commutant"):
                    central_orbit_matrix_v0(mod, orbit, p)
        with pytest.raises(UncertifiedModule, match="commutant"):
            is_supersingular(mod.reduce_mod_p(5))


def test_non_monomial_module_takes_the_dense_route():
    # conjugating the induced module by an upper unitriangular matrix
    # keeps the relations but fills in off-diagonal entries; the module
    # stays irreducible, so it takes the central-character route
    d, H, conj = _conjugated_c2_module()
    conj.check_relations()
    assert _certificate(conj) is not None
    for lam in [(1, 0), (0, 2), (1, 1)]:
        orbit = d.weyl_orbit(lam)
        exact = _exact_at_v0("C2 conjugated", lam)
        for p in (5, 7):
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
        assert _certificate(mod) is not None
        fast = central_orbit_matrix_v0(mod, alg.datum.weyl_orbit(lam), p)
        assert np.array_equal(fast, _exact_at_v0(name, lam) % p), (
            name, lam)


def test_central_character_matches_exact_action():
    # the full scalar c(v) of the dense oracle, not only its constant
    # term, on every generator orbit of the twisted D4 reflection module
    # and on small orbits of the conjugated C2 module
    cases = [("D4", g) for g in _orbit_module("D4")[0].monoid_generators(
        "effective")]
    cases += [("C2 conjugated", lam) for lam in [(1, 0), (0, 2), (1, 1)]]
    for name, lam in cases:
        H, mod = _orbit_module(name)
        c = dense_central_scalar(_certificate(mod),
                                 np.array(H.datum.weyl_orbit(lam)))
        scalar = LaurentMatrix.from_rows(
            [[[c if i == j else 0 for j in range(mod.dim)]
              for i in range(mod.dim)]])[0]
        assert not ((_exact_action(name, lam) - scalar).coeffs != 0).any(), (
            name, lam, c)
    # on D4 the constant term is 0 and the scalar is not
    H, R = _orbit_module("D4")
    orbit = np.array(H.datum.weyl_orbit((1, 0, 0, 0)))
    assert str(dense_central_scalar(_certificate(R), orbit)) == (
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
            c = dense_central_scalar(cert, orbit)
            assert (len(orbit), cert.constant_term(orbit), c.constant_term(),
                    c.min_exp()) == (size, c0, c0, low), (kind, rank, gen)
            for p in (5, 7, 999983, 2**31 - 1):
                assert np.array_equal(
                    central_orbit_matrix_v0(R, orbit, p),
                    c0 % p * np.eye(R.dim, dtype=np.int64)), (gen, p)


def test_certificate_refuses_a_reducible_module():
    # a direct sum of two distinct characters, conjugated by an upper
    # unitriangular matrix: its commutant holds a copy of every diagonal
    # matrix, so it is refused.  The exact action, asked for explicitly,
    # matches the certified central characters of the two summands, which
    # agree on these orbits
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    chars = enumerate_characters(H, "generic")
    assert chars[1] != chars[2]
    summands = [c.as_module(H) for c in chars[1:3]]
    mod = _direct_sum(H, summands)
    mod.check_relations()
    with pytest.raises(UncertifiedModule,
                       match="commutant not certified scalar"):
        _certificate(mod)
    for lam in [(0, 2), (2, 0)]:
        orbit = d.weyl_orbit(lam)
        exact = mod.act(H.central_from_orbit(orbit))
        for summand in summands:
            c = dense_central_scalar(_certificate(summand), np.array(orbit))
            assert _same(exact, _scalar_matrix(c, 2)), (lam, summand)
        for p in (5, 7):
            with pytest.raises(UncertifiedModule, match="commutant"):
                central_orbit_matrix_v0(mod, orbit, p)


def test_reflection_modules_certify():
    # the twisted reflection modules of D4-D8 and E6-E8, and the
    # conjugated induced C2 module
    for kind, rank in [("D", r) for r in range(4, 9)] + [
            ("E", r) for r in (6, 7, 8)]:
        R = reflection_module(build_root_datum(kind, rank)).star_twist()
        assert _certificate(R) is not None, (kind, rank)
    assert _certificate(_orbit_module("C2 conjugated")[1]) is not None


def _direct_sum(H, mods):
    """The direct sum of the 1x1 modules ``mods`` over ``H``, conjugated by
    an upper unitriangular matrix."""
    u = LaurentMatrix.from_rows([[[1, 1], [0, 1]]])[0]
    u_inv = LaurentMatrix.from_rows([[[1, -1], [0, 1]]])[0]
    diag = LaurentMatrix.from_rows(
        [[[mods[0].smats.entry(s, 0, 0), 0], [0, mods[1].smats.entry(s, 0, 0)]]
         for s in range(H.datum.rank + 1)])
    return FinModule(H, u @ diag @ u_inv, None, name="sum of two characters")


def test_cyclic_commutant_test_agrees_with_the_dense_system():
    # the one-cyclic-element test against the commutant dimension from the
    # linear system in n^2 unknowns: on every answer of the README data
    # (the twisted reflection modules of D4-D8 and E6-E8 among them) and
    # on the conjugated induced C2 module it certifies; on the sum of two
    # distinct characters and on the sum of a character with itself,
    # whose B is a scalar, it refuses
    answers = [out for _, _, out in _readme_outcomes()
               if out.module is not None]
    assert len(answers) == 24
    assert sum(out.case == "ReflectionTwist" for out in answers) == 8
    certified = [out.module.generic for out in answers]
    certified.append(_orbit_module("C2 conjugated")[1])
    H = HeckeAlgebra(build_root_datum("C", 2))
    chars = [c.as_module(H) for c in enumerate_characters(H, "generic")]
    refused = [_direct_sum(H, chars[1:3]), _direct_sum(H, [chars[1]] * 2)]
    for mod in certified + refused:
        mod.check_relations()
        dim = commutant_dimension(mod)
        assert _commutant_is_scalar(mod) == (dim == 1), (mod, dim)
    assert all(map(_commutant_is_scalar, certified))
    assert [commutant_dimension(m) for m in refused] == [2, 4]
    assert not any(map(_commutant_is_scalar, refused))


def _orbit_size(datum, lam):
    """The size of the Weyl orbit of the dominant point ``lam``, with no
    walk: the product of $(ht \\alpha + 1) / ht \\alpha$ over the positive
    roots $\\alpha$ with $\\langle \\alpha, \\lambda \\rangle \\neq 0$
    (Kostant, Amer. J. Math. 81, 1959)."""
    size = Fraction(1)
    for root, _ in datum.pos_roots:
        if np.dot(root, lam):
            size *= Fraction(sum(root) + 1, sum(root))
    return int(size)


def test_constant_term_matches_the_dense_oracle():
    # c_0 from one integer product against the constant term of the
    # dense c(v) on every generator orbit with at most 20,000 points (all
    # but four E8 orbits) of every answer of the README data, where c_0
    # is 0, and of each generic character and its extensions up to rank
    # 4, where the trivial and special ones have c_0 != 0; on the answers
    # the orbit matrix against c_0 at 5, 7 and the largest prime below
    # 2^62
    big = 2**62 - 57
    assert is_prime(big)
    walked, nonzero = 0, 0
    for kind, rank, out in _readme_outcomes():
        H = HeckeAlgebra(build_root_datum(kind, rank))
        answer = None if out.module is None else out.module.generic
        modules = [c.as_module(H) for ch in enumerate_characters(H, "generic")
                   for c in (ch, *character_extends(H, ch)[1])
                   if rank <= 4] + [answer] * (answer is not None)
        orbits = {}  # the walked orbits of the datum, each walked once
        for src in modules:
            cert = _certificate(src)
            assert cert is not None, (kind, rank, src)
            level = "coroot" if src.omega_mats is None else "effective"
            for gen in src.alg.monoid_generators(level):
                if gen not in orbits:
                    size = _orbit_size(H.datum, gen)
                    orbits[gen] = (H.datum.weyl_orbit(gen) if size <= 20_000
                                   else None)
                    assert orbits[gen] is None or len(orbits[gen]) == size
                orbit = orbits[gen]
                if orbit is None:
                    continue
                c0 = dense_central_scalar(cert, orbit).constant_term()
                assert cert.constant_term(orbit) == c0, (kind, rank, gen)
                walked, nonzero = walked + 1, nonzero + (c0 != 0)
                if src is not answer:
                    continue
                for p in (5, 7, big):
                    assert np.array_equal(
                        central_orbit_matrix_v0(src, orbit, p),
                        c0 % p * np.eye(src.dim, dtype=np.int64))
    assert walked > 500 and nonzero > 200, (walked, nonzero)


def test_constant_term_refuses_what_it_cannot_count():
    # off the lattice (the message of the back-substitution route), past
    # int64, and a constant term with an imaginary part
    H = HeckeAlgebra(build_root_datum("C", 2))
    sp = next(c for c in enumerate_characters(H, "generic")
              if c.is_special())
    mod = sp.as_module(H)
    cert = _certificate(mod)
    with pytest.raises(NotInLattice, match=r"\(0, 1\) is not in the "
                                           "coroot lattice"):
        cert.constant_term(np.array([(2, 0), (0, 1)]))
    with pytest.raises(OverflowError):
        cert.constant_term(np.array([(2**61, 0)]))
    orbit = H.datum.weyl_orbit((2**60, 0))
    with pytest.raises(OverflowError):
        central_orbit_matrix_v0(mod, orbit, 5)
    # on A1 the coroot orbit {2, -2}: <2, y> = -L puts one point at v^0,
    # where a = 1
    H = HeckeAlgebra(build_root_datum("A", 1))
    length = H.datum.translation_weighted_length((2,))
    odd = _CentralCharacter(H, "coroot", np.array([[-length, 1]]))
    with pytest.raises(ArithmeticError, match="imaginary"):
        odd.constant_term(np.array(H.datum.weyl_orbit((2,))))


def test_a_lift_that_fails_its_check_refuses_the_certificate(monkeypatch):
    # the integer lift of y off by one: the check is an if test, so even
    # under python -O the certificate is refused, and so are the orbit
    # matrices.  A refusal is not kept: once the solve is restored the same
    # module certifies and its orbit matrices match the exact action
    from heckelab import classify
    real = classify.intlin.solve_mod

    def off_by_one(rows, rhs, q):
        x = real(rows, rhs, q)
        return x if q != CERT_Q else (x + 1) % q

    monkeypatch.setattr(classify.intlin, "solve_mod", off_by_one)
    H, induced = _orbit_module("C2")
    # a copy, whose certificate is not cached
    mod = FinModule(H, induced.smats, induced.omega_mats)
    with pytest.raises(UncertifiedModule,
                       match="solve or lift check failed"):
        _certificate(mod)
    lams = [(1, 0), (0, 2), (1, 1)]
    for lam in lams:
        with pytest.raises(UncertifiedModule, match="solve or lift"):
            central_orbit_matrix_v0(mod, H.datum.weyl_orbit(lam), 5)
    monkeypatch.undo()
    for lam in lams:
        orbit = H.datum.weyl_orbit(lam)
        for p in (5, 7):
            fast = central_orbit_matrix_v0(mod, orbit, p)
            assert np.array_equal(fast, _exact_at_v0("C2", lam) % p), (
                lam, p)


def test_a_module_without_a_common_eigenvector_is_refused(monkeypatch):
    # no eigenvector named by the specialized products: the induced C2
    # answer (2x2, so its weights are replayed) is refused at that step
    from heckelab import classify
    monkeypatch.setattr(classify, "_eigen_column", lambda a, lo, hi: None)
    H, induced = _orbit_module("C2")
    mod = FinModule(H, induced.smats, induced.omega_mats)
    with pytest.raises(UncertifiedModule, match="no common eigenvector"):
        central_orbit_matrix_v0(mod, H.datum.weyl_orbit((1, 0)), 5)


def test_module_without_length_zero_action_takes_the_central_character():
    # the twisted A3 reflection module restricted to the non-extended
    # algebra has no length-zero action and still has only scalars in its
    # commutant: its certificate replays the words of
    # the coroot generators with no length-zero factor, and matches the
    # exact action on every generator orbit, c(v) in full and c_0 mod p
    d = build_root_datum("A", 3)
    H = HeckeAlgebra(d)
    R = reflection_module(H).star_twist()
    mod = FinModule(H, R.smats, None, name="restricted reflection module")
    mod.check_relations()
    cert = _certificate(mod)
    assert cert is not None
    for lam in H.monoid_generators("coroot"):
        orbit = d.weyl_orbit(lam)
        exact = mod.act(H.central_from_orbit(orbit))
        c = dense_central_scalar(cert, np.array(orbit))
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
    # would answer silently on any other stack, on the reflection module
    # as on the induced C2 module
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
    # every answer certifies, so no orbit takes the exact action: the
    # reflection answers on D4-D6, exhaustive, and every answer of the
    # classify table (the exact action did not finish one orbit of
    # C5 [1, 2, 2] in 150 s)
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
    answered = 0
    for kind, rank, w in MONOMIAL_ROWS:
        out = key_result_search(
            HeckeAlgebra(build_root_datum(kind, rank, weights=w)))
        if out.module is not None:
            assert out.certificate["supersingular_mod_p"]["nilpotent"]
            answered += 1
    assert answered == len(MONOMIAL_ROWS) - 4
    assert calls == []


def test_one_dim_certificate_replays_no_word(monkeypatch):
    """The certificate of a 1x1 answer reads hyperplane class counts and
    asks for no translation word; that of the induced C3 answer replays
    the word of each monoid generator once."""
    from heckelab import classify, extweyl
    modules = {}
    for kind, rank, w, case in [("C", 3, [1, 1, 1], "Induced2Dim"),
                                ("F", 4, 1, "Character1Dim")]:
        H = HeckeAlgebra(build_root_datum(kind, rank, weights=w))
        out = key_result_search(H)
        assert out.case == case
        src = out.module.generic  # a copy, whose certificate is not cached
        modules[kind] = (H, FinModule(H, src.smats, src.omega_mats))
    calls = []

    def counted(datum, lam):
        calls.append(tuple(lam))
        if datum.kind == "F":
            raise AssertionError(f"translation word of {lam} requested")
        return translation_word(datum, lam)

    monkeypatch.setattr(classify, "translation_word", counted)
    monkeypatch.setattr(extweyl, "translation_word", counted)
    for kind, (H, src) in modules.items():
        assert _certificate(src) is not None
        for gen in H.monoid_generators("effective"):
            mat = central_orbit_matrix_v0(src, H.datum.weyl_orbit(gen), 5)
            assert mat.shape == (src.dim, src.dim)
    assert sorted(calls) == sorted(modules["C"][0].monoid_generators(
        "effective"))


def test_diagonal_entries_differing_within_a_class_take_the_dense_route():
    # the affine A2 nodes form one class; the braid relations would force
    # equal diagonal entries on them, so a 1x1 module with different ones
    # does not read its weights off the class counts but replays words
    H = HeckeAlgebra(build_root_datum("A", 2))
    gens = H.monoid_generators("coroot")
    counts = H.datum.translation_class_counts(np.array(gens))
    q, minus = ((H.q(0),),), ((-1,),)
    even = FinModule(H, (q, q, q), None)
    assert _class_count_weights(even, gens, counts) == _replayed_weights(
        even, gens)
    uneven = FinModule(H, (q, q, minus), None)
    assert _class_count_weights(uneven, gens, counts) is None


def test_orbit_sum_near_the_largest_prime():
    # 2^63 - 25 is the largest prime below 2^63: the central characters of
    # the induced C2 answer and of the D4 reflection module reduce mod p
    # like the exact action
    p = 2**63 - 25
    H, induced = _orbit_module("C2")
    for lam in [(1, 0), (0, 2), (1, 1)]:
        fast = central_orbit_matrix_v0(induced, H.datum.weyl_orbit(lam), p)
        assert np.array_equal(fast, _exact_at_v0("C2", lam) % p), lam
    Hd, R = _orbit_module("D4")
    lam = (0, 0, 0, 1)
    exact = central_orbit_matrix_v0(R, Hd.datum.weyl_orbit(lam), p)
    assert np.array_equal(exact, _exact_at_v0("D4", lam) % p)


def _search_summary(kind, rank, weights):
    """Verdict, dimension, r, largest nilpotency degree and sorted orbit
    sizes of the search on one datum."""
    out = key_result_search(HeckeAlgebra(build_root_datum(kind, rank,
                                                          weights=weights)))
    ss = out.certificate.get("supersingular_mod_p", {})
    return (out.case, out.dimension, out.r, ss.get("nilpotency_degree"),
            sorted(e["orbit_size"] for e in ss.get("per_orbit", [])))


def test_end_swap_of_type_c_keeps_the_answer():
    # the automorphism of the affine C_n diagram that swaps its two end
    # nodes carries a weighting to an isomorphic datum.  The classes come
    # in the order (middle nodes, node n, node 0), so on C2-C5 with
    # weights in {1, 2, 3} swapping the last two class weights keeps the
    # search's summary (0.3 s on a 2-vCPU box)
    verdicts = set()
    for rank in (2, 3, 4, 5):
        seen = {w: _search_summary("C", rank, list(w))
                for w in itertools.product((1, 2, 3), repeat=3)}
        for (m, a, b), got in seen.items():
            assert got == seen[(m, b, a)], (rank, (m, a, b))
            verdicts.add(got[0])
    assert verdicts == {"Character1Dim", "Induced2Dim"}


def test_scaling_and_diagram_isomorphisms_keep_the_answer(monkeypatch):
    # the search's summary on the 132 README data with class weights in
    # {1, 2} is kept by scaling every weight by 2 and by 3; the A1 node
    # swap, B2 against C2 through both node isomorphisms (B2's long node 1
    # is C2's node 2, and C2's end swap exchanges nodes 0 and 2) and D3
    # against A3 keep it too; and the 132 data searched again in a
    # shuffled order with every type's frame built afresh give the same
    # summaries (about 1.5 s on a 2-vCPU box)
    from heckelab import rootdata
    from test_extweyl import README_TYPES
    base = {(kind, rank, w): _search_summary(kind, rank, list(w))
            for kind, rank in README_TYPES
            for w in itertools.product((1, 2), repeat=len(
                build_root_datum(kind, rank).classes))}
    assert len(base) == 132
    assert {got[0] for got in base.values()} == {
        "Character1Dim", "Induced2Dim", "ReflectionTwist", "ExcludedTypeA",
        "UnhandledCase"}
    for (kind, rank, w), got in base.items():
        for g in (2, 3):
            assert _search_summary(kind, rank, [g * x for x in w]) == got, (
                kind, rank, w, g)
    for a, b in itertools.product((1, 2, 3), repeat=2):
        assert (_search_summary("A", 1, [a, b])
                == _search_summary("A", 1, [b, a])), (a, b)
    for a, b, c in itertools.product((1, 2, 3), repeat=3):
        got = _search_summary("B", 2, {1: a, 2: b, 0: c})
        assert got == _search_summary("C", 2, {1: b, 2: a, 0: c}), (a, b, c)
        assert got == _search_summary("C", 2, {1: b, 2: c, 0: a}), (a, b, c)
    for w in (1, 2, 3):
        assert _search_summary("D", 3, w) == _search_summary("A", 3, w), w
    monkeypatch.setattr(rootdata, "_type_frame", functools.cache(
        rootdata._type_frame.__wrapped__))
    order = list(base)
    random.Random(40).shuffle(order)
    assert {key: _search_summary(key[0], key[1], list(key[2]))
            for key in order} == base


def test_eigen_column_matches_the_stacked_search(monkeypatch):
    """The eigenvalue search that filters its candidates by one scalar
    entry names the same ``(shift, j)``, or ``None``, as the stack of
    every candidate it replaced (``geom_oracle.stacked_eigen_column``) on
    every call that certificates make: the search on the acceptance
    table and on C2-C5 with class weights in {1, 2, 3} (a module's
    certificate does not depend on the orbits sampled), and the
    reflection modules of D4-D8 and E6-E8 with their star twists."""
    from heckelab import classify
    from test_acceptance import TABLE
    calls = []

    def record(a, lo, hi):
        got = _eigen_column(a, lo, hi)
        calls.append((a.copy(), lo, hi, got))
        return got

    monkeypatch.setattr(classify, "_eigen_column", record)
    data = [(kind, rank, w) for kind, rank, w, _, _ in TABLE]
    data += [("C", rank, list(w)) for rank in (2, 3, 4, 5)
             for w in itertools.product((1, 2, 3), repeat=3)]
    for kind, rank, w in data:
        key_result_search(build_root_datum(kind, rank, weights=w))
    for kind, rank in [("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
                       ("E", 6), ("E", 7), ("E", 8)]:
        refl = reflection_module(build_root_datum(kind, rank))
        for mod in (refl, refl.star_twist()):
            try:
                _certificate(mod)
            except UncertifiedModule:
                pass
    assert len(calls) > 40
    for a, lo, hi, got in calls:
        assert got == stacked_eigen_column(a, lo, hi), (lo, hi)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(-5, 5),
       st.integers(0, 12), st.data())
def test_eigen_column_matches_the_stack_on_planted_eigenvalues(
        n, t, k, width, data):
    """On $\\mu I + u w^T$ over $F_q$ for a planted $\\mu = i^t v^k$ and
    random $u, w$ (small entries, so that some products vanish), with a
    window $[lo, hi]$ around $k$ or beside it, the filtered search names
    what the stack names."""
    from heckelab.classify import CERT_V
    mu = pow(CERT_I, t, CERT_Q) * pow(CERT_V, k, CERT_Q) % CERT_Q
    entry = st.one_of(st.integers(0, 2), st.integers(0, CERT_Q - 1))
    u, w = (np.array(data.draw(st.lists(entry, min_size=n, max_size=n)),
                     dtype=np.int64) for _ in range(2))
    a = (mu * np.eye(n, dtype=np.int64) + np.outer(u, w) % CERT_Q) % CERT_Q
    lo = k - data.draw(st.integers(-3, width + 3))
    assert _eigen_column(a, lo, lo + width) == stacked_eigen_column(
        a, lo, lo + width)
