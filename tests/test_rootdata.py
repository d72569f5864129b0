"""Root data: Cartan tables, conjugacy classes of nodes, lattices,
and the dominant monoid generators checked against a brute-force
box enumeration (see geom_oracle)."""

import functools
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import (
    DecorationNotClassConstant,
    HeckeAlgebra,
    HilbertBasisOverflow,
    InvalidRank,
    LatticeNotIntermediate,
    NotAFullOrbit,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    dominant_monoid_generators,
    rootdata,
)
from geom_oracle import (
    box_monoid_generators,
    check_monoid_generators,
    closure_is_weyl_orbit,
    descent_hyperplane_tables,
    frac_det,
    reduce_mod_lattice,
    reflect_closure,
    search_lattice_cosets,
    search_weyl_orbit,
)
from test_acceptance import TABLE
from test_classify import _orbit_size
from test_extweyl import README_TYPES

# cartan[i][j] = pairing of the j-th simple root with the i-th simple coroot
CARTAN_TABLE = {
    ("A", 2): ((2, -1), (-1, 2)),
    ("C", 2): ((2, -2), (-1, 2)),
    ("G", 2): ((2, -3), (-1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}

# the number of positive roots of each type, by rank
POS_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

HIGHEST_ROOTS = {
    ("A", 2): ((1, 1), (1, 1)),
    ("C", 2): ((2, 1), (1, 0)),
    ("G", 2): ((3, 2), (0, 1)),
    ("B", 3): ((1, 2, 2), (0, 1, 0)),
    ("F", 4): ((2, 3, 4, 2), (1, 0, 0, 0)),
}


def test_cartan_tables():
    for (kind, rank), expected in CARTAN_TABLE.items():
        assert cartan_matrix(kind, rank) == expected
        assert build_root_datum(kind, rank).cartan == expected


def test_positive_root_counts():
    """The closure of the simple roots finds every positive root, on all
    33 README types."""
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        assert len(d.pos_roots) == POS_ROOT_COUNT[kind](rank), (kind, rank)
        roots = [b for b, _ in d.pos_roots]
        for i in range(rank):
            assert d.simple_root(i + 1) in roots
        assert all(all(c >= 0 for c in b) for b in roots)


def test_root_closure_matches_the_reflection_oracle():
    """The closure that reflects each root only where it rises, and the
    hyperplane classes read off the simple root it was reached from, equal
    the closure over every simple reflection and the classes found by
    height descent, on all 33 README types."""
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        assert d.pos_roots == reflect_closure(d.cartan), (kind, rank)
        want = descent_hyperplane_tables(d.cartan, d.pos_roots, d.classes)
        for got, table in zip(d._hyperplane_classes, want):
            assert got.dtype == table.dtype, (kind, rank)
            assert np.array_equal(got, table), (kind, rank)


def test_highest_root_and_its_coroot():
    for (kind, rank), (theta, theta_vee) in HIGHEST_ROOTS.items():
        d = build_root_datum(kind, rank)
        assert d.theta == theta
        assert d.theta_coroot == theta_vee
        # theta is the unique maximum of the root poset
        for b, _ in d.pos_roots:
            assert all(t >= c for t, c in zip(theta, b))


def test_affine_cartan_c2():
    d = build_root_datum("C", 2)
    assert d.affine_cartan == ((2, -1, 0), (-2, 2, -2), (0, -1, 2))
    for i in range(3):
        assert d.affine_cartan[i][i] == 2


def test_node_classes():
    assert build_root_datum("A", 2).classes == ((0, 1, 2),)
    assert build_root_datum("D", 4).classes == ((0, 1, 2, 3, 4),)
    assert build_root_datum("B", 3).classes == ((0, 1, 2), (3,))
    assert build_root_datum("C", 2).classes == ((1,), (2,), (0,))
    assert build_root_datum("C", 3).classes == ((1, 2), (3,), (0,))
    # A1 has an infinite bond, so the two nodes are never conjugate
    assert build_root_datum("A", 1).classes == ((1,), (0,))


def test_decorations():
    d = build_root_datum("C", 2, weights={0: 3, 1: 1, 2: 2})
    assert d.class_weights == (1, 2, 3)
    assert d.weights == (3, 1, 2)

    # nodes 0 and 2 of affine C2 are not conjugate, so this one is legal
    d2 = build_root_datum("C", 2, weights={0: 1, 1: 2, 2: 1})
    assert d2.class_weights == (2, 1, 1)

    with pytest.raises(DecorationNotClassConstant):
        # all three nodes of affine A2 are conjugate
        build_root_datum("A", 2, weights={0: 1, 1: 1, 2: 2})
    with pytest.raises(DecorationNotClassConstant):
        build_root_datum("C", 3, weights=[1, 2, 3, 4])
    with pytest.raises(DecorationNotClassConstant):
        # nodes 1 and 2 of affine C3 are conjugate
        build_root_datum("C", 3, weights={0: 1, 1: 1, 2: 2, 3: 1})


def test_invalid_ranks():
    for kind, rank in [("E", 9), ("E", 5), ("H", 3), ("F", 3), ("G", 3),
                       ("A", 0)]:
        with pytest.raises(InvalidRank):
            build_root_datum(kind, rank)


def test_lattices():
    d = build_root_datum("A", 2)
    assert d.lattice_name == "coweight"
    assert d.lattice_index == 1
    assert d.in_coroot_lattice((1, 1))
    assert not d.in_coroot_lattice((1, 0))

    dc = build_root_datum("A", 2, lattice="coroot")
    assert dc.lattice_index == 3
    assert dc.in_lattice((1, 1)) and not dc.in_lattice((1, 0))

    with pytest.raises(LatticeNotIntermediate):
        build_root_datum("A", 2, lattice=[(3, 0), (0, 1)])


def test_lattice_index_is_the_determinant_of_the_basis():
    """The product of the echelon pivots against the rational determinant,
    on the coroot lattice of every README type and on the intermediate
    D4 lattice of index 2 spanned by the coroots and the first
    fundamental coweight."""
    data = [build_root_datum(kind, rank, lattice="coroot")
            for kind, rank in README_TYPES]
    data.append(build_root_datum(
        "D", 4, lattice=list(cartan_matrix("D", 4)) + [(1, 0, 0, 0)]))
    for d in data:
        assert d.lattice_index == frac_det(d.lattice_basis) > 0, d
    assert data[-1].lattice_index == 2
    assert [d.lattice_index for d in data if d.kind == "E"] == [3, 2, 1]


def test_coset_separates_coroot_classes():
    rng = random.Random(11)
    for kind, rank in [("A", 2), ("C", 2), ("D", 4)]:
        d = build_root_datum(kind, rank)
        for _ in range(100):
            lam = tuple(rng.randint(-3, 3) for _ in range(rank))
            mu = tuple(rng.randint(-3, 3) for _ in range(rank))
            diff = tuple(a - b for a, b in zip(lam, mu))
            same = (reduce_mod_lattice(d.coroot_basis, lam)
                    == reduce_mod_lattice(d.coroot_basis, mu))
            assert same == d.in_coroot_lattice(diff)


def test_lattice_cosets_match_search_oracle():
    """The coweight cosets of the frame kept by the lattice test are the
    breadth-first closure of the zero coset, on the 33 README types over
    the coweight and the coroot lattice."""
    for kind, rank in README_TYPES:
        for lattice in ("coweight", "coroot"):
            d = build_root_datum(kind, rank, lattice=lattice)
            assert d.lattice_cosets() == search_lattice_cosets(d), (
                kind, rank, lattice)
            assert len(d.lattice_cosets()) * d.lattice_index == len(
                d._coweight_cosets)


# the frame fields, shared by every datum of a type
FRAME_FIELDS = ("kind", "rank", "cartan", "pos_roots", "theta",
                "theta_coroot", "coroot_basis", "affine_cartan", "coxeter_m",
                "classes", "class_of_node", "_hyperplane_classes",
                "node_supports", "alcove_point", "_coweight_cosets",
                "_orbits", "_omega_frames", "_level_generators")


def test_data_of_one_type_share_the_frame():
    """Two data of one type with different weights and lattices hold the
    frame's objects by identity, and nothing bound to the datum."""
    d = build_root_datum("C", 3, weights=[1, 2, 3])
    e = build_root_datum("C", 3, weights=2, lattice="coroot")
    assert d.weights != e.weights and d.lattice_basis != e.lattice_basis
    for name in FRAME_FIELDS:
        assert getattr(d, name) is getattr(e, name), name
    HeckeAlgebra(d)
    assert d.length_zero_group is not None and e.length_zero_group is None
    HeckeAlgebra(e)
    assert e.length_zero_group is not d.length_zero_group


def test_types_of_one_rank_hold_tables_of_their_own():
    """B3 and C3, whose Weyl groups and lattices agree, hold distinct
    orbit, length-zero and generator tables."""
    b, c = build_root_datum("B", 3), build_root_datum("C", 3)
    for name in ("_orbits", "_omega_frames", "_level_generators"):
        assert getattr(b, name) is not getattr(c, name), name


def test_frame_is_read_only():
    """Writing to a shared hyperplane table, to the node classes or to
    the frame itself raises."""
    d = build_root_datum("B", 3)
    for table in d._hyperplane_classes:
        with pytest.raises(ValueError):
            table[0, 0] = 7
    with pytest.raises(TypeError):
        d.class_of_node[0] = 1
    frame = rootdata._type_frame("B", 3)
    with pytest.raises(TypeError):
        frame["cartan"] = ()


def test_frame_built_once_per_type(monkeypatch):
    """Data, algebras and answers of one type share one build of its
    frame, and one datum build makes one RootDatum."""
    frames, data = [], []
    build = rootdata._type_frame.__wrapped__
    monkeypatch.setattr(rootdata, "_type_frame", functools.cache(
        lambda kind, rank: frames.append((kind, rank)) or build(kind, rank)))
    init = rootdata.RootDatum.__init__
    monkeypatch.setattr(rootdata.RootDatum, "__init__",
                        lambda self, *a: data.append(a) or init(self, *a))
    for weights, lattice in [(1, "coweight"), ([1, 2, 2], "coweight"),
                             (2, "coroot"), (1, [(1, 0), (0, 2)])]:
        d = build_root_datum("C", 2, weights=weights, lattice=lattice)
        H = HeckeAlgebra(d)
        H.central((1, 0))
        dominant_monoid_generators(d)
    build_root_datum("G", 2)
    assert frames == [("C", 2), ("G", 2)]
    assert len(data) == 5


def test_weyl_orbits():
    # a regular dominant coweight has orbit size |W|
    assert len(build_root_datum("A", 2).weyl_orbit((1, 1))) == 6
    assert len(build_root_datum("C", 2).weyl_orbit((1, 1))) == 8
    assert len(build_root_datum("G", 2).weyl_orbit((1, 1))) == 12
    d = build_root_datum("C", 2)
    orb = list(map(tuple, d.weyl_orbit((1, 1)).tolist()))
    doms = [x for x in orb if min(x) >= 0]
    assert doms == [(1, 1)]
    for x in orb:
        assert d.dominant_rep(x) == (1, 1)


def test_walk_matches_search_oracle():
    # the reverse-search walk lists the rows of the breadth-first search in
    # its order, from the dominant point and from a random Weyl image, on
    # every fundamental-coweight orbit of at most 20k points (E8's nodes
    # 3-6 have 60,480 to 483,840), and each passes the orbit check
    rng = random.Random(5)
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        for k in range(rank):
            if (kind, rank) == ("E", 8) and 2 <= k <= 5:
                continue
            lam = tuple(int(i == k) for i in range(rank))
            oracle = [list(x) for x in search_weyl_orbit(d, lam)]
            assert len(oracle) <= 20_000, (kind, rank, lam)
            for start in (lam, rng.choice(oracle)):
                orbit = d.weyl_orbit(start)
                assert orbit.dtype == np.int64, (kind, rank, start)
                assert orbit.tolist() == oracle, (kind, rank, start)
                assert d.is_weyl_orbit(orbit), (kind, rank, start)


def test_orbit_closure_test():
    # every orbit in any order passes; a missing, repeated or extra point,
    # or a union of two orbits, fails, also at 1000 times an E8 coweight
    rng = np.random.default_rng(3)
    cases = [("A", 1, (0,), (1,)), ("C", 2, (1, 1), (2, 0)),
             ("G", 2, (1, 0), (0, 1)),
             ("D", 4, (0, 1, 0, 0), (1, 0, 0, 0)),
             ("E", 6, (1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 1)),
             ("E", 8, (0,) * 7 + (1000,), (1,) + (0,) * 7)]
    for kind, rank, lam, mu in cases:
        d = build_root_datum(kind, rank)
        orbit = np.array(d.weyl_orbit(lam))
        assert d.is_weyl_orbit(rng.permutation(orbit)), (kind, lam)
        other = np.array(d.weyl_orbit(mu))
        for bad in [orbit[1:], orbit[:-1], np.concatenate([orbit, orbit[:1]]),
                    np.concatenate([orbit, other])]:
            if len(bad):
                assert not d.is_weyl_orbit(bad), (kind, lam, len(bad))
    d = build_root_datum("C", 2)
    # closed under reflections, but two dominant points: two orbits
    assert not d.is_weyl_orbit([(0, 0), (1, 0), (-1, 1), (1, -1), (-1, 0)])
    # one dominant point, but (0, 1) reflects outside the stack
    assert not d.is_weyl_orbit([(0, 1), (2, -1)])
    # on G2 the image of a coordinate past (2^63 - 1) // 4 may wrap int64
    g2, bound = build_root_datum("G", 2), (2**63 - 1) // 4
    assert g2.is_weyl_orbit(g2.weyl_orbit((0, bound // 2)))
    with pytest.raises(OverflowError):
        g2.is_weyl_orbit([(bound + 1, 0)])
    # the walk runs in Python ints and refuses (-2^62, 2^63) at the end
    with pytest.raises(OverflowError):
        g2.weyl_orbit((0, 2**62))


def test_orbit_sizes_match_walks_on_monoid_generators(fresh_frames):
    # on every monoid generator of the coweight and the coroot lattice of
    # the README types: orbit_size against the Fraction product and, on
    # the orbits of at most 20k points, against the walk (nine E8 and E7
    # orbits are larger); walked into frames of this test alone
    walked = skipped = 0
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        gens = set(dominant_monoid_generators(d)) | set(
            dominant_monoid_generators(d, "coroot"))
        for gen in gens:
            size = d.orbit_size(gen)
            assert size == _orbit_size(d, gen), (kind, rank, gen)
            if size > 20_000:
                skipped += 1
                continue
            assert len(d.weyl_orbit(gen)) == size, (kind, rank, gen)
            walked += 1
    assert (walked, skipped) == (546, 9)


@st.composite
def small_dominant_points(draw, types=README_TYPES, limit=3000):
    """A README datum and a dominant point with at most two nonzero
    coordinates, each 1 to 3, whose orbit has at most ``limit`` points:
    nodes are dropped from the end of the support until it has."""
    kind, rank = draw(st.sampled_from(types))
    d = build_root_datum(kind, rank)
    support = draw(st.lists(st.integers(0, rank - 1), max_size=2,
                            unique=True))
    values = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
    while True:
        lam = tuple(values[support.index(i)] if i in support else 0
                    for i in range(rank))
        if d.orbit_size(lam) <= limit:
            return d, lam
        support.pop()


@settings(max_examples=60, deadline=None)
@given(small_dominant_points(), st.data())
def test_orbit_size_on_random_dominant_points(drawn, data):
    # against the Fraction product and the walk, also read at a random
    # point of the orbit
    d, lam = drawn
    with mock.patch.dict(d._orbits, clear=True):
        orbit = d.weyl_orbit(lam)
    size = d.orbit_size(lam)
    assert size == _orbit_size(d, lam) == len(orbit)
    point = orbit[data.draw(st.integers(0, len(orbit) - 1))]
    assert d.orbit_size(point) == size


def test_regular_e8_stack_is_refused_without_a_walk(monkeypatch,
                                                    fresh_frames):
    # three points of the orbit of (1, ..., 1), all 696,729,600 elements
    # of W: refused on its size, with no walk and nothing kept
    def no_walk(self, dom):
        raise AssertionError(f"walked the orbit of {dom}")

    monkeypatch.setattr(RootDatum, "_dominant_orbit", no_walk)
    d = build_root_datum("E", 8)
    top = (1,) * 8
    stack = [top] + [rootdata.reflect_coweight(d.cartan, s, top)
                     for s in (1, 2)]
    start = time.perf_counter()
    assert d.orbit_size(top) == 696_729_600
    assert not d.is_weyl_orbit(stack)
    with pytest.raises(NotAFullOrbit):
        d.orbit_stack(stack)
    assert time.perf_counter() - start < 0.1
    assert d._orbits == {}


def test_orbit_stack_passes_the_kept_orbit_as_it_is(monkeypatch):
    """The kept orbit that ``weyl_orbit`` returned comes back from
    ``orbit_stack`` as the same object, with no check; a copy, a view
    and a permuted copy take the full check and pass, and a copy with one
    row changed is refused."""
    d = build_root_datum("C", 3)
    orbit = d.weyl_orbit((0, 1, 0))
    checks = []
    real = RootDatum.is_weyl_orbit
    monkeypatch.setattr(RootDatum, "is_weyl_orbit",
                        lambda self, pts: checks.append(1) or real(self, pts))
    assert d.orbit_stack(orbit) is orbit and not checks
    assert build_root_datum("C", 3, weights=[2, 1, 1]).orbit_stack(
        orbit) is orbit
    for other in (orbit.copy(), orbit[:], orbit[::-1].copy(),
                  orbit[np.random.default_rng(3).permutation(len(orbit))]):
        checks.clear()
        got = d.orbit_stack(other)
        assert got is not orbit and checks == [1]
        assert (got[np.lexsort(got.T[::-1])] == orbit).all()
    changed = orbit.copy()
    changed[-1] = changed[0]
    with pytest.raises(NotAFullOrbit):
        d.orbit_stack(changed)


PERTURBATIONS = ("same", "drop", "duplicate", "replace", "join", "negate",
                 "no dominant", "two dominant")


@settings(max_examples=200, deadline=None)
@given(small_dominant_points(limit=2000), st.sampled_from(PERTURBATIONS),
       st.booleans(), st.booleans(), st.data())
def test_orbit_check_matches_closure_oracle(drawn, how, shuffle, cold, data):
    # a kept orbit, perturbed and maybe shuffled, against the closure
    # oracle, with the orbit kept (warm) or the type's table empty (cold):
    # a cold check keeps the orbit of the stack's dominant point, and
    # only when the stack has its size
    d, lam = drawn
    _, mu = data.draw(small_dominant_points(types=[(d.kind, d.rank)],
                                            limit=2000))
    orbit = np.array(d.weyl_orbit(lam))
    n, rank = orbit.shape
    i = data.draw(st.integers(0, n - 1))
    dominant = (orbit >= 0).all(axis=1)
    if how == "same":
        stack = orbit
    elif how == "drop":
        stack = np.delete(orbit, i, axis=0)
    elif how == "duplicate":
        stack = np.concatenate([orbit, orbit[i:i + 1]])
    elif how == "replace":
        stack = orbit.copy()
        stack[i] = data.draw(st.lists(st.integers(-3, 3), min_size=rank,
                                      max_size=rank))
    elif how == "join":
        stack = np.concatenate([orbit, d.weyl_orbit(mu)])
    elif how == "negate":
        stack = orbit.copy()
        stack[i, data.draw(st.integers(0, rank - 1))] *= -1
    elif how == "no dominant":
        stack = orbit[~dominant]
    else:
        stack = np.concatenate([orbit, [mu]])
    if shuffle:
        stack = np.random.default_rng(n).permutation(stack)
    want = closure_is_weyl_orbit(d, stack)
    if how == "same":
        assert want
    with mock.patch.dict(d._orbits, clear=cold):
        assert d.is_weyl_orbit(stack) == want, (d, lam, how, shuffle, cold)
        kept = set(d._orbits)
    if cold:
        doms = stack[(stack >= 0).all(axis=1)].tolist()
        assert kept <= {tuple(dom) for dom in doms}
        assert not kept or len(doms) == 1 and len(stack) == d.orbit_size(
            doms[0])


def test_orbits_kept_per_type(fresh_frames):
    # types of one rank walk the same points, each into a table of its
    # own: each kept orbit equals a fresh walk (the search oracle), and
    # data of one type with other weights or another lattice get the
    # same stack
    tables = {}
    groups = [[("B", 3), ("C", 3)], [("B", 4), ("C", 4), ("F", 4)],
              [("G", 2), ("B", 2), ("C", 2), ("A", 2)]]
    for group in groups:
        rank = group[0][1]
        points = [tuple(int(i == k) for i in range(rank))
                  for k in range(rank)] + [(1,) * rank]
        for kind, _ in group:
            d = build_root_datum(kind, rank)
            other = build_root_datum(kind, rank, weights=(2,) * len(
                d.classes), lattice="coroot")
            for lam in points:
                orbit = d.weyl_orbit(lam)
                assert orbit.tolist() == [
                    list(x) for x in search_weyl_orbit(d, lam)], (kind, lam)
                assert other.weyl_orbit(lam) is orbit, (kind, lam)
                assert d.is_weyl_orbit(orbit[::-1]), (kind, lam)
            tables[kind, rank] = d._orbits
    assert len({id(t) for t in tables.values()}) == len(tables) == sum(
        map(len, groups))
    assert all(len(t) == rank + 1 for (_, rank), t in tables.items())


def test_kept_orbits_are_read_only():
    d = build_root_datum("C", 2)
    orbit = d.weyl_orbit((1, 1))
    assert not orbit.flags.writeable
    with pytest.raises(ValueError):
        orbit[0, 0] = 5
    assert d.weyl_orbit((-1, 3)) is orbit
    assert orbit.tolist() == [list(x) for x in search_weyl_orbit(d, (1, 1))]


def test_reflections_preserve_orbits():
    d = build_root_datum("G", 2)
    orb = set(map(tuple, d.weyl_orbit((1, 0)).tolist()))
    for x in orb:
        for s in (1, 2):
            assert rootdata.reflect_coweight(d.cartan, s, x) in orb


def test_dominant_monoid_generators_against_box_oracle():
    cases = [
        ("A", 1, "lattice"), ("A", 1, "coroot"),
        ("A", 2, "lattice"), ("A", 2, "coroot"),
        ("C", 2, "lattice"), ("C", 2, "coroot"),
        ("G", 2, "coroot"),
        ("B", 3, "coroot"),
    ]
    for kind, rank, which in cases:
        d = build_root_datum(kind, rank)
        gens = dominant_monoid_generators(d, lattice=which)
        complaints = check_monoid_generators(d, gens, bound=4, lattice=which)
        assert complaints == [], (kind, rank, which, complaints)


def test_monoid_generators_c2_frozen():
    d = build_root_datum("C", 2)
    assert set(dominant_monoid_generators(d)) == {(1, 0), (0, 1)}
    assert set(dominant_monoid_generators(d, lattice="coroot")) == {(1, 0), (0, 2)}


def test_parallelepiped_matches_box_oracle():
    """Same tuples, order included, as the box enumeration."""
    cases = []
    for kind, rank, deco, _, _ in TABLE:
        d = build_root_datum(kind, rank, weights=deco)
        cases += [(d, "coroot"), (d, "lattice"),
                  (d, HeckeAlgebra(d).effective_basis)]
    for kind, rank in [("A", 5), ("A", 6), ("D", 6), ("D", 7)]:
        cases.append((build_root_datum(kind, rank), "coroot"))
    # intermediate lattices of index 2: the coroots plus a fundamental
    # coweight of order 2 modulo them
    for kind, rank, extra in [("A", 3, (0, 1, 0)), ("D", 4, (1, 0, 0, 0))]:
        rows = list(cartan_matrix(kind, rank)) + [extra]
        d = build_root_datum(kind, rank, lattice=rows)
        assert d.lattice_index == 2
        cases += [(d, "lattice"), (d, "coroot")]
    for d, which in cases:
        assert (dominant_monoid_generators(d, which)
                == box_monoid_generators(d, which)), (d, which)


def test_coroot_generators_of_a7_and_a8():
    for rank, count in [(7, 64), (8, 118)]:
        d = build_root_datum("A", rank)
        gens = dominant_monoid_generators(d, "coroot")
        assert len(gens) == count
        assert check_monoid_generators(d, gens, bound=2,
                                       lattice="coroot") == []


def test_strict_datum_arguments():
    with pytest.raises(InvalidRank):
        build_root_datum("A", True)
    with pytest.raises(InvalidRank):
        build_root_datum("A", 2.0)
    for weights in [True, 1.0, "1", [1.5, 1, 1], [1, True, 1], [1, "1", 1],
                    {0: 1, 1: 1.0, 2: 1, 3: 1}, {0: 1, True: 1, 2: 1, 3: 1}]:
        with pytest.raises(DecorationNotClassConstant):
            build_root_datum("C", 3, weights=weights)
    for entry in ["1", 1.0, True]:
        with pytest.raises(LatticeNotIntermediate):
            build_root_datum("C", 2, lattice=[(1, 0), (0, entry)])
    # numpy integers are integers
    d = build_root_datum("C", 2, weights=[np.int64(2), 1, 1],
                         lattice=[(np.int64(1), 0), (0, 1)])
    assert d.class_weights == (2, 1, 1)


def test_hilbert_box_overflow(monkeypatch):
    monkeypatch.setattr(rootdata, "MAX_BOX", 1)
    with pytest.raises(HilbertBasisOverflow):
        dominant_monoid_generators(build_root_datum("C", 2))


def test_class_counts_in_chunks(monkeypatch):
    """Class counts taken a few rows at a time equal the one-shot counts
    on a stack that crosses a chunk boundary, in every shape."""
    d = build_root_datum("C", 3, weights=[2, 1, 1])
    rng = np.random.default_rng(5)
    stack = rng.integers(-4, 5, size=(3, 7, 3))
    one_shot = d.translation_class_counts(stack)
    monkeypatch.setattr(rootdata, "CLASS_COUNT_ROWS", 4)
    assert (d.translation_class_counts(stack) == one_shot).all()
    assert (d.translation_class_counts(stack[0]) == one_shot[0]).all()
    assert (d.translation_class_counts(stack[0, 0]) == one_shot[0, 0]).all()
    assert d.translation_class_counts(stack[0, :0]).shape == (0, 3)


def test_datum_equality_is_that_of_to_json():
    """Two data are equal exactly when their ``to_json`` values are, and
    equal data hash equally: data built apart from one input are equal,
    while a custom basis differs from the named lattice it spans."""
    data = [build_root_datum("C", 2), build_root_datum("C", 2),
            build_root_datum("C", 2, lattice=[(1, 0), (0, 1)]),
            build_root_datum("C", 2, lattice=[(0, 1), (1, 0)]),
            build_root_datum("C", 2, lattice="coroot"),
            build_root_datum("C", 2, lattice=[(1, 0), (0, 2)]),
            build_root_datum("C", 2, weights=[1, 2, 2]),
            build_root_datum("C", 3), build_root_datum("B", 2),
            build_root_datum("G", 2)]
    for a in data:
        for b in data:
            assert (a == b) == (a.to_json() == b.to_json()), (a, b)
            assert (a != b) == (a.to_json() != b.to_json()), (a, b)
            if a == b:
                assert hash(a) == hash(b)
    assert data[0] == data[1] and data[0] is not data[1]
    assert data[2] == data[3] and data[2] != data[0]
    assert data[4] != data[5] and data[0] != data[0].to_json()


def test_json_round_trip_shape():
    d = build_root_datum("C", 2, weights=[1, 2, 3])
    blob = d.to_json()
    assert blob["kind"] == "C" and blob["rank"] == 2
    assert blob["weights"] == [1, 2, 3]
    assert blob["lattice"] == "coweight"
