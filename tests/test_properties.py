"""Property tests: randomly drawn inputs checked against the slow
reference routes of the test oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heckelab import (ExtWeylElt, FinModule, HeckeAlgebra, Laurent,
                      LaurentMatrix, RelationsFail, aut_group,
                      build_root_datum, cartan_matrix,
                      dominant_monoid_generators)
from heckelab import intlin
from heckelab.extweyl import (affine_root_is_positive, affine_simple,
                              translation_word)
from heckelab.hecke import HeckeElt
from geom_oracle import box_monoid_generators, check_monoid_generators


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
               ("F", 4), ("G", 2)]


@st.composite
def intermediate_lattices(draw):
    """A datum of rank at most 4 whose lattice is spanned by the coroots
    and up to two random coweights."""
    kind, rank = draw(st.sampled_from(SMALL_TYPES))
    extra = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        max_size=2))
    rows = list(cartan_matrix(kind, rank)) + [tuple(r) for r in extra]
    return build_root_datum(kind, rank, lattice=rows)


@settings(max_examples=150, deadline=None)
@given(intermediate_lattices())
def test_parallelepiped_on_random_lattices(d):
    gens = dominant_monoid_generators(d)
    assert gens == box_monoid_generators(d)
    assert check_monoid_generators(d, gens, bound=3) == []


@st.composite
def weighted_data(draw):
    """A datum of rank at most 4 of any type, with random weights on its
    node classes (weighted affine A1 and C among them) and the coweight,
    the coroot or an intermediate lattice."""
    kind, rank = draw(st.sampled_from(SMALL_TYPES))
    classes = build_root_datum(kind, rank).classes
    weights = draw(st.lists(st.integers(1, 3), min_size=len(classes),
                            max_size=len(classes)))
    lattice = draw(st.sampled_from(["coweight", "coroot", "intermediate"]))
    if lattice == "intermediate":
        extra = draw(st.lists(st.integers(-3, 3), min_size=rank,
                              max_size=rank))
        lattice = list(cartan_matrix(kind, rank)) + [tuple(extra)]
    return build_root_datum(kind, rank, weights=weights, lattice=lattice)


@settings(max_examples=150, deadline=None)
@given(weighted_data(), st.data())
def test_rank_one_step_matches_general_product(d, data):
    """Along a random word that uses node 0, after a length-zero prefix,
    each rank-one step equals the general product with the simple
    reflection, and each fast descent test, alone or fused into the step,
    equals the sign of the image of the simple affine root."""
    omegas = aut_group(d).elements
    x = omegas[data.draw(st.integers(0, len(omegas) - 1))]
    word = data.draw(st.lists(st.integers(0, d.rank), max_size=12))
    word.insert(data.draw(st.integers(0, len(word))), 0)
    for s in word:
        for t in range(d.rank + 1):
            slow = not affine_root_is_positive(
                x.act_affine_root(affine_simple(d, t)))
            assert x.right_descent(t) == slow
            xt, descent = x.step(t)
            general = x * ExtWeylElt.simple_reflection(d, t)
            assert (xt.tr, xt.mat, xt.rmat, descent) == (
                general.tr, general.mat, general.rmat, slow)
        fast, xs = x.mul_simple(s), x.step(s)[0]
        assert (fast.tr, fast.mat, fast.rmat) == (xs.tr, xs.mat, xs.rmat)
        x = fast


TYPES_TO_RANK_6 = SMALL_TYPES + [("A", 5), ("A", 6), ("B", 5), ("B", 6),
                                 ("C", 5), ("C", 6), ("D", 5), ("D", 6),
                                 ("E", 6)]


@st.composite
def weighted_lattice_points(draw):
    """A datum of rank at most 6 with random class weights (weighted
    affine A1 and C among them) and the coweight, the coroot or an
    intermediate lattice, and a random point of that lattice."""
    kind, rank = draw(st.sampled_from(TYPES_TO_RANK_6))
    classes = build_root_datum(kind, rank).classes
    weights = draw(st.lists(st.integers(1, 4), min_size=len(classes),
                            max_size=len(classes)))
    lattice = draw(st.sampled_from(["coweight", "coroot", "intermediate"]))
    if lattice == "intermediate":
        extra = draw(st.lists(st.integers(-3, 3), min_size=rank,
                              max_size=rank))
        lattice = list(cartan_matrix(kind, rank)) + [tuple(extra)]
    d = build_root_datum(kind, rank, weights=weights, lattice=lattice)
    coords = draw(st.lists(st.integers(-2, 2), min_size=rank,
                           max_size=rank))
    lam = tuple(sum(c * row[j] for c, row in zip(coords, d.lattice_basis))
                for j in range(rank))
    assert d.in_lattice(lam)
    return d, lam


@settings(max_examples=150, deadline=None)
@given(weighted_lattice_points())
def test_translation_weighted_length_matches_word(point):
    """The per-class hyperplane count equals the node weights summed along
    ``translation_word``."""
    d, lam = point
    word = translation_word(d, lam)
    assert d.translation_weighted_length(lam) == sum(
        d.weights[s] for s in word)


@settings(max_examples=150, deadline=None)
@given(weighted_lattice_points())
def test_translation_class_counts_match_word(point):
    """The hyperplane class counts equal the letters of each node class
    in ``translation_word``."""
    d, lam = point
    word = translation_word(d, lam)
    assert d.translation_class_counts(lam).tolist() == [
        sum(1 for s in word if s in cls) for cls in d.classes]


def letter_by_letter(x, y, twisted=False):
    """``x`` times ``y`` (times the twisted symbols of ``y``'s support when
    ``twisted``), one right-hand term at a time: the length-zero part, then
    each letter of the reduced word on the whole partial product."""
    total = x.alg.zero()
    for w, c in y.terms.items():
        omega, word = w.reduced_word()
        part = x._mul_omega(omega)
        for s in word:
            part = part._mul_basis(s, {}, twisted)
        total = total + part.scale(c)
    return total


@st.composite
def hecke_elements(draw, H, max_terms=4):
    """A sum of up to ``max_terms`` basis elements with random Laurent
    coefficients.  Each index is a random supported length-zero part times
    a word that starts with a prefix shared by the element's terms, so the
    reduced words of the support often share prefixes."""
    d = H.datum
    omegas = H.omega.elements
    prefix = draw(st.lists(st.integers(0, d.rank), max_size=3))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        omega = omegas[draw(st.integers(0, len(omegas) - 1))]
        tail = draw(st.lists(st.integers(0, d.rank), max_size=3))
        w = ExtWeylElt.from_word(d, prefix + tail, omega)
        coeffs = draw(st.dictionaries(st.integers(-3, 3),
                                      st.integers(-3, 3), max_size=3))
        terms[w] = Laurent(coeffs) + terms.get(w, Laurent.zero())
    return HeckeElt(H, terms)


@settings(max_examples=100, deadline=None)
@given(weighted_data(), st.data())
def test_trie_product_matches_letter_by_letter(d, data):
    """The product over the prefix trie of the right factor's reduced
    words equals the letter-by-letter product, for plain and twisted
    letters, and the sign automorphism equals the sum of its values on the
    terms."""
    H = HeckeAlgebra(d)
    x = data.draw(hecke_elements(H))
    y = data.draw(hecke_elements(H))
    assert x * y == letter_by_letter(x, y)
    assert x._product(y.terms, twisted=True) == letter_by_letter(
        x, y, twisted=True)
    expected = H.zero()
    for w, c in y.terms.items():
        sign = -1 if w.length() % 2 else 1
        expected = expected + H.star_t(w).scale(c * sign)
    assert H.sign_star(y) == expected


@settings(max_examples=150, deadline=None)
@given(weighted_data(), st.sampled_from(["coroot", "effective"]),
       st.data())
def test_dominant_decomposition_rule(d, level, data):
    """At either level, a point of the level's lattice splits into two
    dominant lattice points with difference the point: its positive and
    negative parts exactly when the positive part lies in the lattice,
    else both shifted by the least s >= 0 that makes the positive part a
    sum of the rays a_i e_i."""
    H = HeckeAlgebra(d)
    basis = d.coroot_basis if level == "coroot" else H.effective_basis
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                max_size=len(basis)))
    lam = tuple(sum(c * row[j] for c, row in zip(coords, basis))
                for j in range(d.rank))
    plus, minus = H.dominant_decomposition(lam, level)
    assert tuple(a - b for a, b in zip(plus, minus)) == lam
    for part in (plus, minus):
        assert d.is_dominant(part)
        assert intlin.in_row_lattice(basis, part)
    parts = (tuple(max(x, 0) for x in lam), tuple(max(-x, 0) for x in lam))
    shift = tuple(a - b for a, b in zip(plus, parts[0]))
    assert ((plus, minus) == parts) == intlin.in_row_lattice(basis, parts[0])
    assert all(0 <= s < a for s, a in zip(shift, intlin.lattice_rays(basis)))
    if level == "effective":
        assert H.dominant_decomposition(lam) == (plus, minus)
    # a stack splits row by row as its points do one at a time
    stack = [lam, tuple(-x for x in lam), (0,) * d.rank]
    plus_s, minus_s = H.dominant_decomposition(np.array(stack), level)
    for mu, a, b in zip(stack, plus_s.tolist(), minus_s.tolist()):
        assert H.dominant_decomposition(mu, level) == (tuple(a), tuple(b))


@settings(max_examples=150, deadline=None)
@given(weighted_data(), st.data())
def test_stacked_reduction_matches_per_point(d, data):
    """Over the coroot and the effective basis, the stacked echelon
    reduction equals reduce_mod_lattice and in_row_lattice row by row, on
    random points (mostly off the lattice), on lattice points and on
    lattice points moved by a unit vector; the length-zero indices read
    off the stacked representatives are those of the per-point lookup."""
    H = HeckeAlgebra(d)
    vec = st.lists(st.integers(-9, 9), min_size=d.rank, max_size=d.rank)
    for basis in (d.coroot_basis, H.effective_basis):
        coords = data.draw(st.lists(vec, min_size=1, max_size=6))
        on = [tuple(sum(c * row[j] for c, row in zip(cs, basis))
                    for j in range(d.rank)) for cs in coords]
        moved = [tuple(x + (j == k) for j, x in enumerate(v))
                 for k, v in enumerate(on) if k < d.rank]
        pts = data.draw(st.lists(vec, max_size=6)) + on + moved
        red = intlin.reduce_rows_mod_lattice(basis, pts)
        assert red.shape == (len(pts), d.rank)
        assert [tuple(r) for r in red.tolist()] == [
            intlin.reduce_mod_lattice(basis, v) for v in pts]
        assert intlin.rows_in_lattice(basis, pts).tolist() == [
            intlin.in_row_lattice(basis, v) for v in pts]
    om = H.omega
    assert om.translation_indices(on) == [
        om.index_of(om.element_for_translation(v)) for v in on]


@settings(max_examples=100, deadline=None)
@given(weighted_data(), st.data())
def test_family_check_matches_member_checks(d, data):
    """A stack of 1x1 mod-5 modules with values in {0, -1, 1} (1 breaks
    the quadratic relation) fails its one relation check exactly when
    some member fails its own, and names the first such member's first
    failing relation."""
    H = HeckeAlgebra(d)
    n = d.rank + 1
    shape = data.draw(st.sampled_from([(1,), (3,), (6,), (2, 3)]))
    members = [data.draw(st.lists(st.sampled_from([0, -1, -1, 1]),
                                  min_size=n, max_size=n))
               for _ in range(int(np.prod(shape)))]
    stack = np.array(members, dtype=np.int64).T.reshape((n,) + shape)
    family = FinModule(H, LaurentMatrix(0, stack[..., None, None, None]),
                       None, prime=5)
    first = None
    for k, values in enumerate(members):
        try:
            FinModule(H, [[[x]] for x in values], None,
                      prime=5).check_relations()
        except RelationsFail as exc:
            first = k, str(exc)
            break
    if first is None:
        family.check_relations()
        return
    with pytest.raises(RelationsFail) as caught:
        family.check_relations()
    index = tuple(int(i) for i in np.unravel_index(first[0], shape))
    assert str(caught.value).startswith(
        f"{first[1]} in family member {index} with node values ")
