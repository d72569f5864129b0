"""Extended affine Weyl groups.

Lengths are checked against an independent geometric count of the
hyperplanes separating the fundamental alcove from its image
(geom_oracle.alcove_length), not against the implementation's own
bookkeeping.
"""

import random
import re
from collections import Counter

import numpy as np
import pytest

from heckelab import (
    ExtWeylElt,
    HeckeAlgebra,
    extweyl,
    intlin,
    aut_group,
    build_root_datum,
    decorated_aut_group,
    effective_lattice,
    elements_up_to_length,
    translation_word,
)
from heckelab.extweyl import affine_simple
from geom_oracle import alcove_length, frac_det, omega_build

OMEGA_STRUCTURE = {
    ("A", 1): "Z/2", ("A", 2): "Z/3", ("A", 3): "Z/4", ("A", 4): "Z/5",
    ("B", 3): "Z/2",
    ("C", 2): "Z/2", ("C", 3): "Z/2", ("C", 4): "Z/2", ("C", 5): "Z/2",
    ("D", 4): "Z/2 x Z/2", ("D", 5): "Z/4",
    ("E", 6): "Z/3", ("E", 7): "Z/2", ("E", 8): "1",
    ("F", 4): "1", ("G", 2): "1",
}


def test_lengths_against_alcove_oracle():
    for kind, rank, weights in [("A", 1, 1), ("A", 2, 1), ("C", 2, 1),
                                ("B", 3, 1), ("G", 2, 1),
                                ("C", 2, [1, 2, 3]), ("D", 4, 1)]:
        d = build_root_datum(kind, rank, weights=weights)
        for w in elements_up_to_length(d, 4, extended=True):
            assert w.length() == alcove_length(w)


def test_reduced_words_reconstruct():
    for kind, rank in [("A", 2), ("C", 2), ("G", 2)]:
        d = build_root_datum(kind, rank)
        for w in elements_up_to_length(d, 4, extended=True):
            omega, letters = w.reduced_word()
            assert len(letters) == w.length()
            assert ExtWeylElt.from_word(d, letters, omega=omega) == w


def test_element_counts_and_distinctness():
    # |extended elements of length <= L| = |Omega| * |plain elements|
    for kind, rank, expected in [("A", 1, 26), ("A", 2, 192),
                                 ("C", 2, 114), ("G", 2, 52)]:
        d = build_root_datum(kind, rank)
        ext = elements_up_to_length(d, 6, extended=True)
        plain = elements_up_to_length(d, 6)
        assert len(ext) == expected
        assert len(set(ext)) == expected
        assert len(ext) == len(plain) * len(aut_group(d).elements)


def test_descents_match_length_drop():
    """The step and its descent against a general product: each
    reflection's matrices are read first, so that ``w * r`` pulls back
    through them and does not step."""
    d = build_root_datum("C", 2)
    simples = [ExtWeylElt.simple_reflection(d, s) for s in range(3)]
    for r in simples:
        r.tr
    for w in elements_up_to_length(d, 4, extended=True):
        for s, r in enumerate(simples):
            ws, descent = w.step(s)
            assert ws == w * r
            assert w.right_descent(s) == descent == (ws.length() < w.length())


def test_group_operations():
    d = build_root_datum("G", 2)
    rng = random.Random(3)
    pool = elements_up_to_length(d, 4, extended=True)
    for _ in range(100):
        x, y = rng.choice(pool), rng.choice(pool)
        assert (x * x.inv()).is_identity()
        assert x.length() == alcove_length(x.inv())
        # the action is a homomorphism
        lam = tuple(rng.randint(-2, 2) for _ in range(2))
        assert (x * y).act_coweight(lam) == x.act_coweight(y.act_coweight(lam))


def pairing(root, coweight):
    return sum(n * c for n, c in zip(root, coweight))


def test_action_preserves_pairing():
    d = build_root_datum("C", 2)
    rng = random.Random(5)
    pool = elements_up_to_length(d, 4, extended=True)
    roots = [b for b, _ in d.pos_roots]
    for _ in range(200):
        w = rng.choice(pool)
        beta = rng.choice(roots)
        lam = tuple(rng.randint(-3, 3) for _ in range(2))
        # translations shift the pairing by a constant, so compare
        # against the linear part only
        mu = w.act_coweight((0, 0))
        shifted = tuple(a - b for a, b in zip(w.act_coweight(lam), mu))
        assert pairing(w.act_root(beta), shifted) == pairing(beta, lam)


def test_translations():
    d = build_root_datum("C", 2)
    t = ExtWeylElt.translation(d, (1, 0))
    assert t.is_translation() and t.tr == (1, 0)
    assert t.length() == 4
    assert alcove_length(t) == 4
    # translations by lattice points compose additively
    t2 = ExtWeylElt.translation(d, (0, 1))
    assert t * t2 == ExtWeylElt.translation(d, (1, 1))
    assert t * t2 == t2 * t


def test_translation_word_matches_matrix_route():
    rng = random.Random(17)
    for kind, rank in [("A", 2), ("C", 2), ("G", 2), ("B", 3)]:
        d = build_root_datum(kind, rank)
        G = aut_group(d)
        for _ in range(25):
            lam = tuple(rng.randint(-2, 2) for _ in range(rank))
            t = ExtWeylElt.translation(d, lam)
            word = translation_word(d, lam)
            assert len(word) == t.length()
            omega = G.elements[G.translation_indices([lam])[0]]
            assert ExtWeylElt.from_word(d, word, omega=omega) == t
            # reduced words are not unique, but the multiset of node
            # classes crossed is
            _, ref = t.reduced_word()
            key = lambda s: d.class_of_node[s]
            assert Counter(map(key, word)) == Counter(map(key, ref))


def test_translation_indices_detect_coset():
    """Index 0 is the identity: on C2 the coroots (1, 0) and (0, 2) give
    it, and the coweight (0, 1) does not."""
    G = aut_group(build_root_datum("C", 2))
    assert G.translation_indices([(1, 0), (0, 2), (0, 1)]) == [0, 0, 1]


def test_omega_structure_table():
    for (kind, rank), expected in OMEGA_STRUCTURE.items():
        assert aut_group(build_root_datum(kind, rank)).structure() == expected


def test_omega_group_axioms():
    for kind, rank in [("A", 3), ("D", 4), ("C", 2)]:
        G = aut_group(build_root_datum(kind, rank))
        n = len(G.elements)
        assert G.index_of(G.elements[0]) == 0
        for i in range(n):
            assert G.mult_index(0, i) == i == G.mult_index(i, 0)
            assert any(G.mult_index(i, j) == 0 for j in range(n))
            for j in range(n):
                for k in range(n):
                    ij_k = G.mult_index(G.mult_index(i, j), k)
                    i_jk = G.mult_index(i, G.mult_index(j, k))
                    assert ij_k == i_jk


def test_sign_characters_are_the_homomorphisms_to_signs():
    """Every group of the README types and every decorated group of C2
    and C3 keeps its homomorphisms to $\\{\\pm 1\\}$: as many as the
    elements of order at most two, each multiplicative, the trivial one
    first, derived once."""
    data = [build_root_datum(kind, rank) for kind, rank in README_TYPES]
    data += [build_root_datum("C", r, weights=w) for r in (2, 3)
             for w in ([1, 2, 2], [1, 2, 3])]
    for d in data:
        for G in (aut_group(d), decorated_aut_group(d)):
            signs, n = G.sign_characters, len(G)
            assert signs is G.sign_characters and signs[0] == (1,) * n
            assert len(set(signs)) == len(signs) == sum(
                G.mult_index(i, i) == 0 for i in range(n))
            for s in signs:
                assert all(s[G.mult_index(i, j)] == s[i] * s[j]
                           for i in range(n) for j in range(n))


# the 33 types the README advertises
README_TYPES = ([("A", r) for r in range(1, 9)]
                + [("B", r) for r in range(2, 9)]
                + [("C", r) for r in range(2, 9)]
                + [("D", r) for r in range(3, 9)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def test_simple_reflection_matrices_match_closed_form():
    """On every node of the 33 README types, the matrices replayed for the
    reflection stepped from the identity are the closed form: translation
    ``theta_coroot`` at node 0 and 0 elsewhere, ``mat[j][k] = delta_jk -
    cov[j] root[k]`` for the node's coroot and root, and ``rmat`` its
    transpose; the alcove vector is the base point pulled back by them."""
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        v0, den = d.alcove_point
        for s in range(rank + 1):
            if s == 0:
                root, cov, tr = d.theta, d.theta_coroot, d.theta_coroot
            else:
                root, cov, tr = d.simple_root(s), d.cartan[s - 1], (0,) * rank
            mat = tuple(tuple(int(j == k) - cov[j] * root[k]
                              for k in range(rank)) for j in range(rank))
            r = ExtWeylElt.simple_reflection(d, s)
            assert r == ExtWeylElt.identity(d).step(s)[0]
            assert (r.tr, r.mat, r.rmat) == (tr, mat, intlin.transpose(mat)), (
                kind, rank, s)
            assert r.q == extweyl._pull_back(v0, (tr, mat, r.rmat), den)


def test_length_zero_elements_permute_the_nodes():
    """Every element of the length-zero group has length 0, by the
    implementation and by the alcove oracle, and sends the simple affine
    roots to simple affine roots by its node permutation; the group has
    one element per coset of the coroot lattice."""
    assert len(README_TYPES) == 33
    for kind, rank in README_TYPES:
        d = build_root_datum(kind, rank)
        G = aut_group(d)
        assert len(G) == abs(frac_det(d.cartan))
        simples = [affine_simple(d, i) for i in range(rank + 1)]
        for omega, perm in zip(G.elements, G.perms):
            assert omega.length() == 0 == alcove_length(omega), (kind, rank)
            assert sorted(perm) == list(range(rank + 1))
            assert [omega.act_affine_root(a) for a in simples] == [
                simples[j] for j in perm], (kind, rank, perm)


def _omega_oracle(d):
    """The length-zero group derived the long way: per coroot coset, the
    walk of the translation's alcove vector replayed through matrices,
    and the node permutation read off the images of the simple affine
    roots.  Returns (perm, alcove vector, affine map, coset) sorted by
    perm."""
    simples = [affine_simple(d, i) for i in range(d.rank + 1)]
    items = []
    for rep in d.lattice_cosets():
        t = ExtWeylElt.translation(d, rep)
        q, walk = extweyl._walk(d, t.q)
        omega = ExtWeylElt(d, q, extweyl._replay(d, t._affine(), walk))
        perm = tuple(simples.index(omega.act_affine_root(a))
                     for a in simples)
        items.append((perm, q, omega._affine(), rep))
    return sorted(items)


def _matches_oracle(G, oracle):
    assert G.perms == tuple(t[0] for t in oracle)
    assert [e.q for e in G.elements] == [t[1] for t in oracle]
    assert [e._affine() for e in G.elements] == [t[2] for t in oracle]
    assert G._by_coset == {t[3]: i for i, t in enumerate(oracle)}


def test_length_zero_group_matches_replayed_oracle():
    """The permutations and affine maps read off the alcove vectors equal
    those of the word replay, on the 33 README types over the coweight
    and the coroot lattice, on an intermediate lattice and on the
    decorated subgroups."""
    data = [build_root_datum(kind, rank, lattice=lattice)
            for kind, rank in README_TYPES
            for lattice in ("coweight", "coroot")]
    # between the coroot lattice and the coweight lattice of A3
    middle = build_root_datum("A", 3, lattice=list(
        build_root_datum("A", 3).cartan) + [(0, 1, 0)])
    assert len(aut_group(middle)) == 2
    data += [middle, build_root_datum("C", 3, weights=[1, 2, 3]),
             build_root_datum("C", 2, weights=[1, 2, 2]),
             build_root_datum("A", 1, weights=[1, 2])]
    for d in data:
        oracle = _omega_oracle(d)
        _matches_oracle(aut_group(d), oracle)
        _matches_oracle(decorated_aut_group(d), [
            t for t in oracle
            if all(d.weights[j] == w for j, w in zip(t[0], d.weights))])


def test_length_zero_group_matches_the_per_datum_build():
    """The group bound from the parts kept per type and lattice equals
    the walk made for the datum alone (``omega_build``), element by
    element with its affine map, and so does its decorated subgroup: on
    the 33 README types over the coweight and the coroot lattice and on
    D4 over a lattice of index 2, each at two weightings, built one after
    the other.  Every element is bound to its own datum."""
    d4 = build_root_datum("D", 4)
    lattices = [(kind, rank, lattice) for kind, rank in README_TYPES
                for lattice in ("coweight", "coroot")]
    lattices.append(("D", 4, list(d4.cartan) + [(1, 0, 0, 0)]))
    seen = 0
    for kind, rank, lattice in lattices:
        classes = len(build_root_datum(kind, rank).classes)
        for weights in (1, list(range(2, classes + 2))):
            d = build_root_datum(kind, rank, weights=weights, lattice=lattice)
            G, oracle = aut_group(d), omega_build(d)
            for got, want in ((G, oracle), (G.decorated(), oracle.decorated())):
                assert got.perms == want.perms, (kind, rank, lattice, weights)
                assert [e.q for e in got] == [e.q for e in want]
                assert [e._affine() for e in got] == [
                    e._affine() for e in want]
                assert dict(got._by_coset) == want._by_coset
                assert all(e.datum is d for e in got)
            seen += 1
    assert seen == 2 * 67
    assert build_root_datum("D", 4, lattice=lattices[-1][2]).lattice_index == 2


def test_group_law_read_off_permutations():
    """``mult_index`` agrees with products of the group elements, and the
    inverse of each element lies in the group, on the full and decorated
    groups."""
    data = [build_root_datum(kind, rank) for kind, rank in README_TYPES]
    data.append(build_root_datum("C", 3, weights=[1, 2, 2]))
    for d in data:
        for G in (aut_group(d), decorated_aut_group(d)):
            els = G.elements
            for i, x in enumerate(els):
                assert G.mult_index(i, G.index_of(x.inv())) == 0
                for j, y in enumerate(els):
                    assert els[G.mult_index(i, j)] == x * y, (d.label(), i, j)


def test_length_zero_group_multiplies_no_elements(monkeypatch):
    """The group is built and multiplied from alcove vectors and
    permutations alone: no word replay, affine-root action, element
    product or matrix product."""
    def refuse(*args):
        raise AssertionError("called while building the group")

    monkeypatch.setattr(extweyl, "_replay", refuse)
    monkeypatch.setattr(intlin, "mat_mul", refuse)
    monkeypatch.setattr(ExtWeylElt, "act_affine_root", refuse)
    monkeypatch.setattr(ExtWeylElt, "__mul__", refuse)
    monkeypatch.setattr(ExtWeylElt, "inv", refuse)
    for kind, rank in [("A", 5), ("D", 4), ("D", 6), ("E", 6), ("C", 3)]:
        G = extweyl.OmegaGroup.build(build_root_datum(kind, rank))
        for i in range(len(G)):
            for j in range(len(G)):
                G.mult_index(i, j)


def test_length_zero_group_built_once_per_datum(monkeypatch):
    """Reduced words, the algebra, the decorated group and the effective
    lattice of one datum share one build of the group."""
    builds = []
    real = extweyl.OmegaGroup.build
    monkeypatch.setattr(extweyl.OmegaGroup, "build",
                        staticmethod(lambda d: builds.append(d) or real(d)))
    d = build_root_datum("C", 2, weights=[1, 2, 2])
    omega, _ = ExtWeylElt.translation(d, (0, 1)).reduced_word()
    H = HeckeAlgebra(d)
    assert H.omega_full is aut_group(d) and omega in H.omega
    assert decorated_aut_group(d).perms == H.omega.perms
    assert effective_lattice(d) == H.effective_basis
    assert builds == [d]
    HeckeAlgebra(build_root_datum("C", 2, weights=[1, 2, 2]))
    assert len(builds) == 2


def test_length_zero_group_walked_once_per_type_and_lattice(monkeypatch,
                                                            fresh_frames):
    """Data of one type and lattice share the walked parts of the group
    whatever their weights: only the first datum walks the coset
    representatives, and each datum gets elements of its own.  Another
    lattice of the type walks again."""
    walks = []
    real = extweyl._walk
    monkeypatch.setattr(extweyl, "_walk",
                        lambda d, q: walks.append(q) or real(d, q))
    plain = aut_group(build_root_datum("C", 3))
    assert len(walks) == len(plain) == 2
    d = build_root_datum("C", 3, weights=[1, 2, 3])
    weighted = aut_group(d)
    assert len(walks) == 2 and weighted.perms is plain.perms
    assert all(e.datum is d for e in weighted)
    assert not set(weighted.elements) & set(plain.elements)
    assert len(aut_group(build_root_datum("C", 3, lattice="coroot"))) == 1
    assert len(walks) == 3


def test_equality_respects_the_datum():
    """Elements are equal only on equal data (the same datum or one with
    the same ``to_json``): the identities of C2 and G2 share the alcove
    vector (2, 3) but differ, and a set holds both."""
    c2, g2 = build_root_datum("C", 2), build_root_datum("G", 2)
    e_c, e_g = ExtWeylElt.identity(c2), ExtWeylElt.identity(g2)
    assert e_c.q == e_g.q == (2, 3)
    assert e_c != e_g and len({e_c, e_g}) == 2
    weighted = build_root_datum("C", 2, weights=[1, 2, 3])
    assert ExtWeylElt.identity(weighted) != e_c
    again = ExtWeylElt.identity(build_root_datum("C", 2))
    assert again.datum is not c2
    assert again == e_c and len({again, e_c}) == 1


def test_omega_node_orbits():
    assert aut_group(build_root_datum("C", 2)).node_orbits() == ((0, 2), (1,))
    assert aut_group(build_root_datum("D", 4)).node_orbits() == ((0, 1, 3, 4), (2,))


def test_decorated_subgroup():
    assert decorated_aut_group(build_root_datum("A", 1)).structure() == "Z/2"
    assert decorated_aut_group(build_root_datum("A", 1, weights=[1, 2])).structure() == "1"
    assert decorated_aut_group(build_root_datum("C", 2, weights=[1, 2, 2])).structure() == "Z/2"
    assert decorated_aut_group(build_root_datum("C", 2, weights=[1, 2, 3])).structure() == "1"


def test_effective_lattice():
    # full symmetry keeps the whole lattice; broken symmetry cuts it down
    assert effective_lattice(build_root_datum("A", 1)) == ((1,),)
    assert effective_lattice(build_root_datum("A", 1, weights=[1, 2])) == ((2,),)
    d = build_root_datum("C", 2, weights=[1, 2, 3])
    rows = effective_lattice(d)
    # index two sublattice of Z^2 containing the coroot lattice
    assert abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 2
    assert d.in_coroot_lattice((0, 2))


def test_weighted_length():
    d = build_root_datum("C", 2, weights=[1, 2, 3])
    assert ExtWeylElt.simple_reflection(d, 0).weighted_length() == 3
    assert ExtWeylElt.simple_reflection(d, 1).weighted_length() == 1
    assert ExtWeylElt.simple_reflection(d, 2).weighted_length() == 2
    t = ExtWeylElt.translation(d, (1, 0))
    _, letters = t.reduced_word()
    assert t.weighted_length() == sum(d.weights[s] for s in letters)


def test_from_word_rejects_bad_letters():
    d = build_root_datum("A", 2)
    with pytest.raises(ValueError):
        ExtWeylElt.from_word(d, (0, 7))


def test_reduced_word_makes_no_matrix_products(monkeypatch):
    """Reduced words walk the alcove vector and words back to elements
    step it: a long A8 translation makes no general matrix product."""
    d = build_root_datum("A", 8)
    t = ExtWeylElt.translation(d, (3, -2, 1, 0, 4, -1, 2, 0))
    calls = []
    real = intlin.mat_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(intlin, "mat_mul", counted)
    omega, word = t.reduced_word()
    assert len(word) == t.length() > 100
    assert ExtWeylElt.from_word(d, word, omega=omega) == t
    assert calls == []


def test_rank_one_step_rejects_bad_nodes():
    d = build_root_datum("C", 2)
    x = ExtWeylElt.translation(d, (1, 0))
    for s in (-1, 3):
        with pytest.raises(ValueError):
            x.step(s)
        with pytest.raises(ValueError):
            x.right_descent(s)
        with pytest.raises(ValueError):
            ExtWeylElt.simple_reflection(d, s)


def test_node_letters_are_integers():
    """Every route that takes node letters steps through
    ``ExtWeylElt.step``, which refuses a bool or a float with a
    ``TypeError`` naming it (True once stood for node 1, and 1.0 failed
    inside a tuple index) and steps a numpy integer as its int twin."""
    d = build_root_datum("C", 2)
    H = HeckeAlgebra(d)
    x = ExtWeylElt.translation(d, (1, 0))
    routes = (x.step, x.right_descent,
              lambda s: ExtWeylElt.simple_reflection(d, s),
              lambda s: ExtWeylElt.from_word(d, (0, s)),
              lambda s: H.t_word((s,)))
    for bad in (True, False, 1.0, 0.0, "1", None):
        for route in routes:
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                route(bad)
    for s in range(d.rank + 1):
        n = np.int64(s)
        xs, descent = x.step(n)
        assert (xs, descent) == x.step(s) and type(descent) is bool
        assert all(type(v) is int for v in xs.q)
        assert x.right_descent(n) == descent
        assert (ExtWeylElt.simple_reflection(d, n)
                == ExtWeylElt.from_word(d, (s,)))
        assert H.t_word((n, 1)) == H.t_word((s, 1))


@pytest.mark.parametrize("kind, rank, weights", [
    ("A", 1, [1, 2]), ("A", 2, 1), ("C", 2, [1, 2, 3]), ("C", 3, [2, 1, 1]),
    ("B", 3, 1), ("G", 2, 1)])
def test_weighted_length_by_hyperplane_class(kind, rank, weights):
    """The inversions counted by hyperplane class weigh as much as the
    letters of a reduced word, and on translations as much as the
    translation's class counts."""
    d = build_root_datum(kind, rank, weights=weights)
    for w in elements_up_to_length(d, 5, extended=True):
        _, word = w.reduced_word()
        assert w.weighted_length() == sum(d.weights[s] for s in word)
    ones, zeros = (1,) * (rank - 1), (0,) * (rank - 1)
    for lam in [(1,) + ones, (-2,) + ones, (3,) + zeros, zeros + (-3,)]:
        t = ExtWeylElt.translation(d, lam)
        assert t.weighted_length() == d.translation_weighted_length(lam)
