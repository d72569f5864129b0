"""Root data: Cartan tables, conjugacy classes of nodes, lattices,
and the dominant monoid generators checked against a brute-force
box enumeration (see geom_oracle)."""

import random

import numpy as np
import pytest

from heckelab import (
    DecorationNotClassConstant,
    HeckeAlgebra,
    HilbertBasisOverflow,
    InvalidRank,
    LatticeNotIntermediate,
    build_root_datum,
    cartan_matrix,
    dominant_monoid_generators,
    rootdata,
)
from geom_oracle import box_monoid_generators, check_monoid_generators
from test_acceptance import TABLE

# cartan[i][j] = pairing of the j-th simple root with the i-th simple coroot
CARTAN_TABLE = {
    ("A", 2): ((2, -1), (-1, 2)),
    ("C", 2): ((2, -2), (-1, 2)),
    ("G", 2): ((2, -3), (-1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("F", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}

POS_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 3): 9, ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("G", 2): 6,
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
    for (kind, rank), n in POS_ROOT_COUNTS.items():
        d = build_root_datum(kind, rank)
        assert len(d.pos_roots) == n, (kind, rank)
        roots = [b for b, _ in d.pos_roots]
        for i in range(rank):
            assert d.simple_root(i + 1) in roots
        assert all(all(c >= 0 for c in b) for b in roots)


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
    assert (d.weight(0), d.weight(1), d.weight(2)) == (3, 1, 2)

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


def test_coset_separates_coroot_classes():
    rng = random.Random(11)
    for kind, rank in [("A", 2), ("C", 2), ("D", 4)]:
        d = build_root_datum(kind, rank)
        for _ in range(100):
            lam = tuple(rng.randint(-3, 3) for _ in range(rank))
            mu = tuple(rng.randint(-3, 3) for _ in range(rank))
            diff = tuple(a - b for a, b in zip(lam, mu))
            same = d.coset_mod_coroots(lam) == d.coset_mod_coroots(mu)
            assert same == d.in_coroot_lattice(diff)


def test_weyl_orbits():
    # a regular dominant coweight has orbit size |W|
    assert len(build_root_datum("A", 2).weyl_orbit((1, 1))) == 6
    assert len(build_root_datum("C", 2).weyl_orbit((1, 1))) == 8
    assert len(build_root_datum("G", 2).weyl_orbit((1, 1))) == 12
    d = build_root_datum("C", 2)
    orb = d.weyl_orbit((1, 1))
    doms = [x for x in orb if d.is_dominant(x)]
    assert doms == [(1, 1)]
    for x in orb:
        assert d.dominant_rep(x) == (1, 1)


def test_reflections_preserve_orbits():
    d = build_root_datum("G", 2)
    orb = set(d.weyl_orbit((1, 0)))
    for x in orb:
        for s in (1, 2):
            assert tuple(d.reflect(s, x)) in orb


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


def test_json_round_trip_shape():
    d = build_root_datum("C", 2, weights=[1, 2, 3])
    blob = d.to_json()
    assert blob["kind"] == "C" and blob["rank"] == 2
    assert blob["weights"] == [1, 2, 3]
    assert blob["lattice"] == "coweight"
