"""Acceptance suite.

One test per advertised capability, run against the full table of
supported data.  Each test enforces its stated time budget, so a green
run here certifies both correctness and performance:

1. character enumeration counts and relations,
2. the extension obstruction appears in exactly two families,
3. the structure of the length-zero symmetry groups,
4. classification verdicts over the table (rank at most five),
5. the star-twisted reflection module splits at v=0 into distinct
   supersingular residual characters through E8,
6. the special character is discrete but never supersingular and the
   trivial character is never discrete, on every supported datum,
7. a seeded battery of kernel identities (at least a thousand samples),
8. lengths and reduced words against a geometric alcove-walk oracle.
"""

import random
import time
from collections import Counter

from heckelab import (
    ExtWeylElt,
    Laurent,
    HeckeAlgebra,
    aut_group,
    build_root_datum,
    character_extends,
    decompose_at_v0,
    decorated_aut_group,
    dominant_monoid_generators,
    effective_lattice,
    elements_up_to_length,
    enumerate_characters,
    is_discrete_character,
    is_supersingular,
    key_result_search,
    reflection_module,
)
from heckelab.extweyl import STEP_TABLE_SIZE, step_vector
from geom_oracle import alcove_length

C_PATTERNS = [[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 3, 3]]

# (kind, rank, weights, expected verdict, expected r)
TABLE = [
    ("A", 1, [1, 1], "ExcludedTypeA", None),
    ("A", 1, [1, 2], "Character1Dim", 1),
    ("A", 2, 1, "ExcludedTypeA", None),
    ("A", 3, 1, "ExcludedTypeA", None),
    ("A", 4, 1, "ExcludedTypeA", None),
    ("B", 3, 1, "Character1Dim", 1),
    ("C", 2, C_PATTERNS[0], "Induced2Dim", 2),
    ("C", 2, C_PATTERNS[1], "Induced2Dim", 2),
    ("C", 2, C_PATTERNS[2], "Character1Dim", 1),
    ("C", 2, C_PATTERNS[3], "Character1Dim", 1),
    ("C", 3, C_PATTERNS[0], "Induced2Dim", 2),
    ("C", 3, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 3, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 3, C_PATTERNS[3], "Induced2Dim", 2),
    ("C", 4, C_PATTERNS[0], "Character1Dim", 1),
    ("C", 4, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 4, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 4, C_PATTERNS[3], "Induced2Dim", 2),
    ("C", 5, C_PATTERNS[0], "Character1Dim", 1),
    ("C", 5, C_PATTERNS[1], "Character1Dim", 1),
    ("C", 5, C_PATTERNS[2], "Induced2Dim", 2),
    ("C", 5, C_PATTERNS[3], "Character1Dim", 1),
    ("D", 4, 1, "ReflectionTwist", None),
    ("D", 5, 1, "ReflectionTwist", None),
    ("E", 6, 1, "ReflectionTwist", None),
    ("E", 7, 1, "ReflectionTwist", None),
    ("E", 8, 1, "ReflectionTwist", None),
    ("F", 4, 1, "Character1Dim", 1),
    ("G", 2, 1, "Character1Dim", 1),
]

OMEGA_STRUCTURE = {
    ("A", 1): "Z/2", ("A", 2): "Z/3", ("A", 3): "Z/4", ("A", 4): "Z/5",
    ("B", 3): "Z/2",
    ("C", 2): "Z/2", ("C", 3): "Z/2", ("C", 4): "Z/2", ("C", 5): "Z/2",
    ("D", 4): "Z/2 x Z/2", ("D", 5): "Z/4",
    ("E", 6): "Z/3", ("E", 7): "Z/2", ("E", 8): "1",
    ("F", 4): "1", ("G", 2): "1",
}


def all_data():
    for kind, rank, w, _, _ in TABLE:
        yield build_root_datum(kind, rank, weights=w)


def test_criterion_1_character_counts_and_relations():
    for d in all_data():
        start = time.monotonic()
        H = HeckeAlgebra(d)
        generic = enumerate_characters(H, "generic")
        modp = enumerate_characters(H, "modp")
        assert len(generic) == 2 ** len(d.classes), d.label()
        assert len(modp) == 2 ** (d.rank + 1), d.label()
        for ch in generic:
            ch.as_module(H).check_relations()
        for ch in modp:
            ch.as_module(H, p=5).check_relations()
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, (d.label(), elapsed)


def test_criterion_2_extension_obstruction_families():
    failures = []
    for d in all_data():
        H = HeckeAlgebra(d)
        for ch in enumerate_characters(H, "generic"):
            flag, exts = character_extends(H, ch)
            if not flag:
                failures.append((d, ch))
    assert failures, "the obstruction must actually occur"
    seen_a1 = seen_c = False
    for d, ch in failures:
        if d.kind == "A" and d.rank == 1:
            # both node weights equal, signs differ across the swap
            assert d.weights[0] == d.weights[1]
            assert ch.sign_on_node(0) != ch.sign_on_node(1)
            seen_a1 = True
        else:
            # type C with the two end classes equally weighted
            assert d.kind == "C"
            assert d.weights[0] == d.weights[d.rank]
            assert ch.sign_on_node(0) != ch.sign_on_node(d.rank)
            seen_c = True
    assert seen_a1 and seen_c


def test_criterion_3_length_zero_group_table():
    for (kind, rank), expected in OMEGA_STRUCTURE.items():
        d = build_root_datum(kind, rank)
        G = aut_group(d)
        assert G.structure() == expected, (kind, rank)
        assert decorated_aut_group(d).structure() == expected
    # broken decorations cut the group down
    assert decorated_aut_group(
        build_root_datum("A", 1, weights=[1, 2])).structure() == "1"
    assert decorated_aut_group(
        build_root_datum("C", 3, weights=[1, 2, 3])).structure() == "1"
    assert decorated_aut_group(
        build_root_datum("C", 3, weights=[2, 3, 3])).structure() == "Z/2"


def test_criterion_4_classification_verdicts():
    for kind, rank, w, expected, r in TABLE:
        if rank > 5:
            continue
        start = time.monotonic()
        out = key_result_search(HeckeAlgebra(build_root_datum(
            kind, rank, weights=w)))
        elapsed = time.monotonic() - start
        assert out.case == expected, (kind, rank, w, out.case)
        if r is not None:
            assert out.r == r, (kind, rank, w)
            assert out.certificate["relations"] == "pass"
            assert out.certificate["supersingular_mod_p"]["nilpotent"]
        assert elapsed < 10.0, (kind, rank, w, elapsed)


def test_criterion_5_reflection_twist_through_e8():
    for kind, rank in [("D", 4), ("D", 5), ("E", 6)]:
        start = time.monotonic()
        d = build_root_datum(kind, rank)
        twisted = reflection_module(d).star_twist()
        twisted.check_relations()
        comps = decompose_at_v0(twisted)
        assert len(comps) == rank + 1
        assert len({c.label() for c in comps}) == rank + 1
        flag, info = is_supersingular(twisted.reduce_mod_p(5),
                                      exhaustive=True)
        assert flag and not info["sampled"]
        assert all(e["nilpotent"] for e in info["orbits"])
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, (kind, rank, elapsed)

    for kind, rank in [("E", 7), ("E", 8)]:
        start = time.monotonic()
        d = build_root_datum(kind, rank)
        twisted = reflection_module(d).star_twist()
        twisted.check_relations()
        comps = decompose_at_v0(twisted)
        assert len({c.label() for c in comps}) == rank + 1
        flag, info = is_supersingular(twisted.reduce_mod_p(5))
        assert flag and info["sampled"]
        assert all(e["nilpotent"] for e in info["orbits"])
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, (kind, rank, elapsed)


def test_criterion_6_special_and_trivial_characters():
    for d in all_data():
        H = HeckeAlgebra(d)
        chars = enumerate_characters(H, "generic")
        special = next(c for c in chars if c.is_special())
        trivial = next(c for c in chars if c.is_trivial())
        assert is_discrete_character(H, special)[0], d.label()
        assert not is_discrete_character(H, trivial)[0], d.label()
        mod = special.as_module(H).reduce_mod_p(5)
        flag, _ = is_supersingular(mod)
        assert flag is False, d.label()


def test_criterion_7_seeded_kernel_battery(fresh_frames):
    start = time.monotonic()
    rng = random.Random(20240816)
    data = [
        build_root_datum("A", 1),
        build_root_datum("A", 1, weights=[1, 2]),
        build_root_datum("A", 2),
        build_root_datum("C", 2),
        build_root_datum("C", 2, weights=[1, 2, 3]),
        build_root_datum("B", 3),
        build_root_datum("G", 2),
    ]
    algebras = [HeckeAlgebra(d) for d in data]
    pools = {}
    for H in algebras:
        d = H.datum
        pools[d] = [om * x
                    for om in decorated_aut_group(d).elements
                    for x in elements_up_to_length(d, 4)]
    samples = 0

    def pick(H):
        return rng.choice(pools[H.datum])

    # (a) quadratic relations at random nodes
    for _ in range(160):
        H = rng.choice(algebras)
        d = H.datum
        s = rng.randrange(d.rank + 1)
        ts = H.t_word((s,))
        qs = H.q_of(ExtWeylElt.simple_reflection(d, s))
        assert ts * ts == ts.scale(qs - Laurent.one()) + H.one().scale(qs)
        samples += 1

    # (b) braid relations at random bonds (rank one has only the
    # infinite bond, so it sits this one out)
    braid_pool = [H for H in algebras if H.datum.rank >= 2]
    for _ in range(160):
        H = rng.choice(braid_pool)
        d = H.datum
        s, t = rng.sample(range(d.rank + 1), 2)
        m = d.coxeter_m[s][t]
        left = [s if i % 2 == 0 else t for i in range(m)]
        right = [t if i % 2 == 0 else s for i in range(m)]
        assert H.t_word(left) == H.t_word(right)
        samples += 1

    # (c) products multiply when lengths add
    for _ in range(160):
        H = rng.choice(algebras)
        d = H.datum
        z = pick(H)
        omega, letters = z.reduced_word()
        k = rng.randint(0, len(letters))
        x = ExtWeylElt.from_word(d, letters[:k], omega=omega)
        y = ExtWeylElt.from_word(d, letters[k:])
        assert H.t(x) * H.t(y) == H.t(z)
        samples += 1

    # (d) pairing with the twisted basis gives the scalar q_w
    for _ in range(140):
        H = rng.choice(algebras)
        w = pick(H)
        assert H.t(w) * H.star_t(w.inv()) == H.one().scale(H.q_of(w))
        samples += 1

    # (e) the sign involution is a ring automorphism of order two
    for _ in range(140):
        H = rng.choice(algebras)
        x, y = H.t(pick(H)), H.t(pick(H))
        assert H.sign_star(H.sign_star(x)) == x
        assert H.sign_star(x * y) == H.sign_star(x) * H.sign_star(y)
        samples += 1

    # (f) Bernstein elements do not depend on the chosen decomposition
    for _ in range(100):
        H = rng.choice(algebras)
        d = H.datum
        while True:
            lam = tuple(rng.randint(-1, 1) for _ in range(d.rank))
            if d.in_lattice(lam) and H.in_effective_lattice(lam):
                break
        gens = dominant_monoid_generators(d, lattice=effective_lattice(d))
        nu = rng.choice(gens)
        plus, minus = H.dominant_decomposition(lam)
        plus = tuple(a + b for a, b in zip(plus, nu))
        minus = tuple(a + b for a, b in zip(minus, nu))
        t_plus = ExtWeylElt.translation(d, plus)
        t_minus = ExtWeylElt.translation(d, minus)
        t_lam = ExtWeylElt.translation(d, lam)
        delta = (t_plus.weighted_length() + t_minus.weighted_length()
                 - t_lam.weighted_length())
        neg = tuple(-x for x in minus)
        alt = (H.star_t(t_plus) * H.t(ExtWeylElt.translation(d, neg))
               ).scale(Laurent.v(-delta))
        assert alt == H.bernstein(lam)
        samples += 1

    # (g) product rule on a shared chamber, commutativity in general
    for _ in range(100):
        H = rng.choice(algebras)
        d = H.datum
        gens = dominant_monoid_generators(d, lattice=effective_lattice(d))
        lam, mu = rng.choice(gens), rng.choice(gens)
        total = tuple(a + b for a, b in zip(lam, mu))
        assert H.bernstein(lam) * H.bernstein(mu) == H.bernstein(total)
        while True:
            a = tuple(rng.randint(-1, 1) for _ in range(d.rank))
            b = tuple(rng.randint(-1, 1) for _ in range(d.rank))
            if (d.in_lattice(a) and H.in_effective_lattice(a)
                    and d.in_lattice(b) and H.in_effective_lattice(b)):
                break
        ea, eb = H.bernstein(a), H.bernstein(b)
        assert ea * eb == eb * ea
        samples += 1

    # (h) orbit sums are central with polynomial, even coefficients
    for _ in range(60):
        H = rng.choice(algebras)
        d = H.datum
        gens = dominant_monoid_generators(d, lattice=effective_lattice(d))
        z = H.central(rng.choice(gens))
        assert z.all_coeffs_polynomial() and z.all_coeffs_even()
        s = rng.randrange(d.rank + 1)
        ts = H.t_word((s,))
        assert z * ts == ts * z
        w = pick(H)
        tw = H.t(w)
        assert z * tw == tw * z
        samples += 1

    elapsed = time.monotonic() - start
    assert samples >= 1000, samples
    assert elapsed < 300.0, elapsed

    # every step the battery kept in its frames, recomputed
    for d in {(d.kind, d.rank): d for d in data}.values():
        assert any(d._steps)
        for s, table in enumerate(d._steps):
            assert len(table) <= STEP_TABLE_SIZE
            for q, hit in table.items():
                assert step_vector(d, q, s) == hit, (d.label(), s, q)


def test_criterion_8_lengths_and_words_against_alcove_oracle():
    for kind, rank in [("A", 1), ("A", 2), ("C", 2), ("G", 2)]:
        d = build_root_datum(kind, rank)
        elements = elements_up_to_length(d, 6, extended=True)
        assert len(set(elements)) == len(elements)
        by_len = Counter()
        for w in elements:
            geometric = alcove_length(w)
            assert w.length() == geometric, (kind, rank)
            omega, letters = w.reduced_word()
            assert len(letters) == geometric
            assert ExtWeylElt.from_word(d, letters, omega=omega) == w
            by_len[geometric] += 1
        # every length up to the bound is realized
        assert set(by_len) == set(range(7)), (kind, rank)
