"""Property tests: randomly drawn inputs checked against the slow
reference routes of the test oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from heckelab import (ExtWeylElt, FinModule, HeckeAlgebra, Laurent,
                      LaurentMatrix, NegativePowersPresent, RelationsFail,
                      aut_group, build_root_datum, cartan_matrix,
                      dominant_monoid_generators, elements_up_to_length)
from heckelab import intlin, modules
from heckelab.extweyl import (affine_root_is_positive, affine_simple,
                              translation_word)
from heckelab.hecke import HeckeElt
from geom_oracle import (alcove_length, bernstein_star_first,
                         box_monoid_generators, check_monoid_generators,
                         laurent_check_relations, letter_by_letter,
                         search_lattice_cosets)
from test_modules import verdict


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


@settings(max_examples=100, deadline=None)
@given(intermediate_lattices())
def test_lattice_cosets_match_search_oracle_on_random_lattices(d):
    assert d.lattice_cosets() == search_lattice_cosets(d)


@st.composite
def weighted_data(draw, max_rank=4):
    """A datum of rank at most ``max_rank`` (at most 4) of any type, with
    random weights on its node classes (weighted affine A1 and C among
    them) and the coweight, the coroot or an intermediate lattice."""
    kind, rank = draw(st.sampled_from(
        [(k, r) for k, r in SMALL_TYPES if r <= max_rank]))
    classes = build_root_datum(kind, rank).classes
    weights = draw(st.lists(st.integers(1, 3), min_size=len(classes),
                            max_size=len(classes)))
    lattice = draw(st.sampled_from(["coweight", "coroot", "intermediate"]))
    if lattice == "intermediate":
        extra = draw(st.lists(st.integers(-3, 3), min_size=rank,
                              max_size=rank))
        lattice = list(cartan_matrix(kind, rank)) + [tuple(extra)]
    return build_root_datum(kind, rank, weights=weights, lattice=lattice)


def general_ball(d, max_len):
    """Every element of length at most ``max_len`` of the extended group,
    by general products of elements that carry their matrices: the
    breadth-first ball of the affine Weyl group, keyed by the affine map
    and not by the alcove vector, times each length-zero element."""
    simples = [ExtWeylElt.simple_reflection(d, s) for s in range(d.rank + 1)]
    e = ExtWeylElt.identity(d)
    layer = ball = {(e.tr, e.mat): e}
    for _ in range(max_len):
        layer = {key: wg for w in layer.values() for g in simples
                 for wg in [w * g] for key in [(wg.tr, wg.mat)]
                 if key not in ball}
        ball = {**ball, **layer}
    return [om * w for om in aut_group(d).elements for w in ball.values()]


def check_alcove_vectors(d, max_len):
    """On the ball of :func:`general_ball`: the alcove vector is
    injective and :func:`elements_up_to_length` finds the same elements;
    an element made by steps along its reduced word builds the general
    product's matrices; descents are the signs of the images of the
    simple affine roots; the length is the alcove oracle's."""
    ball = general_ball(d, max_len)
    assert len({(w.tr, w.mat) for w in ball}) == len(ball)
    assert len({w.q for w in ball}) == len(ball)
    assert {w.q for w in ball} == {
        w.q for w in elements_up_to_length(d, max_len, extended=True)}
    for w in ball:
        omega, word = w.reduced_word()
        lazy = ExtWeylElt.from_word(d, word, omega)
        assert (lazy.q, lazy.tr, lazy.mat, lazy.rmat) == (
            w.q, w.tr, w.mat, w.rmat)
        assert w.length() == len(word) == alcove_length(w)
        for t in range(d.rank + 1):
            slow = not affine_root_is_positive(
                w.act_affine_root(affine_simple(d, t)))
            assert w.right_descent(t) == w.step(t)[1] == slow


@settings(max_examples=150, deadline=None)
@given(weighted_data(), st.data())
def test_rank_one_step_matches_general_product(d, data):
    """Along a random word that uses node 0, after a length-zero prefix,
    each step equals the general product with the simple reflection, and
    each fast descent test, alone or fused into the step, equals the sign
    of the image of the simple affine root.  The matrices that the
    stepped element builds from its reduced word equal those of a chain
    of general products, and its length is the alcove oracle's.  The
    alcove vector is injective on the extended ball of length 2."""
    omegas = aut_group(d).elements
    x = omegas[data.draw(st.integers(0, len(omegas) - 1))]
    chain = x
    word = data.draw(st.lists(st.integers(0, d.rank), max_size=12))
    word.insert(data.draw(st.integers(0, len(word))), 0)
    for s in word:
        assert (x.q, x.tr, x.mat, x.rmat) == (
            chain.q, chain.tr, chain.mat, chain.rmat)
        assert x.length() == alcove_length(x)
        for t in range(d.rank + 1):
            slow = not affine_root_is_positive(
                x.act_affine_root(affine_simple(d, t)))
            assert x.right_descent(t) == slow
            xt, descent = x.step(t)
            general = x * ExtWeylElt.simple_reflection(d, t)
            assert (xt.tr, xt.mat, xt.rmat, descent) == (
                general.tr, general.mat, general.rmat, slow)
        x = x.step(s)[0]
        chain = chain * ExtWeylElt.simple_reflection(d, s)
    check_alcove_vectors(d, 2)


@pytest.mark.parametrize("kind, rank, max_len", [
    ("A", 3, 5), ("D", 5, 4), ("D", 4, 5)])
def test_alcove_vectors_on_extended_elements(kind, rank, max_len):
    """:func:`check_alcove_vectors` where the length-zero group is Z/4
    (A3, D5) and Z/2 x Z/2 (D4)."""
    check_alcove_vectors(build_root_datum(kind, rank), max_len)


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


@st.composite
def hecke_elements(draw, H, max_terms=4, coeff=3, exp=3):
    """A sum of up to ``max_terms`` basis elements with random Laurent
    coefficients, integers in -``coeff``..``coeff`` at exponents in
    -``exp``..``exp``.  Each index is a random supported length-zero part
    times a word that starts with a prefix shared by the element's terms,
    so the reduced words of the support often share prefixes."""
    d = H.datum
    omegas = H.omega.elements
    prefix = draw(st.lists(st.integers(0, d.rank), max_size=3))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        omega = omegas[draw(st.integers(0, len(omegas) - 1))]
        tail = draw(st.lists(st.integers(0, d.rank), max_size=3))
        w = ExtWeylElt.from_word(d, prefix + tail, omega)
        coeffs = draw(st.dictionaries(st.integers(-exp, exp),
                                      st.integers(-coeff, coeff),
                                      max_size=3))
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


@settings(max_examples=60, deadline=None)
@given(weighted_data(), st.data())
def test_packed_products_are_exact_at_the_slot_bound(d, data):
    """With coefficients up to $2^{80}$ in absolute value at exponents in
    -40..40, so that packed slots are wide and results pass 64 bits, the
    plain and the twisted product equal the letter-by-letter product."""
    H = HeckeAlgebra(d)
    x = data.draw(hecke_elements(H, coeff=2**80, exp=40))
    y = data.draw(hecke_elements(H, coeff=2**80, exp=40))
    assert x * y == letter_by_letter(x, y)
    assert x._product(y.terms, twisted=True) == letter_by_letter(
        x, y, twisted=True)


def check_terms_are_group_elements(H, x, y, central=False):
    """Every term of ``x * y``, of the twisted product, of ``sign_star``,
    of ``star_t`` and, when ``central``, of the central orbit sum of the
    effective monoid generator with the smallest orbit is an
    ``ExtWeylElt`` of ``H``'s datum itself with a nonzero coefficient."""
    elts = [x * y, x._product(y.terms, twisted=True), H.sign_star(y)]
    elts += [H.star_t(w) for w in y.terms]
    if central:
        gen = min(H.monoid_generators("effective"),
                  key=lambda g: (len(H.datum.weyl_orbit(g)),
                                 sum(map(abs, g))))
        elts.append(H.central(gen))
    for elt in elts:
        for w, c in elt.terms.items():
            assert type(w) is ExtWeylElt and w.datum is H.datum
            assert type(c) is Laurent and not c.is_zero()


@settings(max_examples=60, deadline=None)
@given(weighted_data(), st.data())
def test_products_return_group_elements_of_the_datum(d, data):
    """Products keyed by alcove vectors hand back group elements of the
    algebra's datum, with the left factor also taken times the largest
    length-zero part of the decorated group; central orbit sums are
    checked on rank at most 2, where they stay small."""
    H = HeckeAlgebra(d)
    x = data.draw(hecke_elements(H))
    y = data.draw(hecke_elements(H))
    check_terms_are_group_elements(H, x, y, central=d.rank <= 2)
    check_terms_are_group_elements(H, x * H.t(H.omega.elements[-1]), y)


@pytest.mark.parametrize("kind, rank", [("A", 3), ("C", 2), ("D", 4)])
def test_products_with_length_zero_parts_return_group_elements(kind, rank):
    """Both factors with nontrivial length-zero parts, and a right factor
    of the same datum built a second time."""
    d = build_root_datum(kind, rank)
    H, again = HeckeAlgebra(d), HeckeAlgebra(build_root_datum(kind, rank))
    omegas = H.omega.elements
    assert len(omegas) > 1
    x = H.t(ExtWeylElt.from_word(d, (0, 1, 2), omegas[1]))
    y = H.t(ExtWeylElt.from_word(d, (2, 1, 0, 2), omegas[-1])) + H.one()
    check_terms_are_group_elements(H, x, y, central=True)
    y_again = HeckeElt(again, {ExtWeylElt.from_word(
        again.datum, (2, 1, 0, 2), again.omega.elements[-1]): Laurent.v()})
    for left in (x, H.one()):
        prod = left * y_again
        assert not prod.is_zero() and all(w.datum is d for w in prod.terms)


@settings(max_examples=100, deadline=None)
@given(weighted_data(max_rank=3), st.data())
def test_bernstein_sums_match_star_first_order(d, data):
    """On random weights and lattices, the sum of the Bernstein elements
    at one to three distinct random points of the effective lattice,
    walked from $T_{t_-}$ with one slot width for the whole sum, equals
    the sum of the products $T^*_{t_+} T_{t_-}$ with $T^*_{t_+}$ expanded,
    and so does each element alone.  Points are combinations of the
    effective basis with coordinates in -2..2; on rank 3 only those whose
    positive part has L1 norm at most 3 are kept, as in the box of
    ``test_bernstein_elements_match_star_first_order``, since the
    expanded factors of the others take seconds each."""
    H = HeckeAlgebra(d)
    basis = H.effective_basis
    coords = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * len(basis)),
        min_size=1, max_size=3, unique=True))
    pts = [lam for cs in coords
           for lam in [tuple(sum(c * row[j] for c, row in zip(cs, basis))
                             for j in range(d.rank))]
           if d.rank < 3 or sum(max(x, 0) for x in lam) <= 3]
    assume(pts)
    assert H._bernstein_sum(pts) == bernstein_star_first(H, pts)
    assert H.bernstein(pts[0]) == bernstein_star_first(H, pts[:1])


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
        red = intlin.lattice_coordinates(basis, pts)[1]
        assert red.shape == (len(pts), d.rank)
        assert [tuple(r) for r in red.tolist()] == [
            intlin.reduce_mod_lattice(basis, v) for v in pts]
        assert (~red.any(axis=1)).tolist() == [
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


def draw_laurent_family(d, data):
    """The node coefficients and degrees of up to eight 1x1 modules with
    node values in {q_s, -1, 1, -q_s}: characters and free members."""
    n, m = d.rank + 1, len(d.classes)
    # a value is (coefficient, whether it carries q_s = v^(2 w_s))
    sign = {1: (1, True), -1: (-1, False)}
    character = st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m
                         ).map(lambda signs: [sign[signs[d.class_of_node[s]]]
                                              for s in range(n)])
    free = st.lists(st.sampled_from([(1, True), (-1, False), (1, False),
                                     (-1, True)]), min_size=n, max_size=n)
    members = data.draw(st.lists(st.one_of(character, free), min_size=1,
                                 max_size=8))
    coeffs = [[c for c, _ in member] for member in members]
    degrees = [[2 * d.weights[s] * q for s, (_, q) in enumerate(member)]
               for member in members]
    return coeffs, degrees


@settings(max_examples=100, deadline=None)
@given(weighted_data(), st.data())
def test_laurent_family_check_matches_member_checks(d, data):
    """A family of 1x1 Laurent modules with node values in
    {q_s, -1, 1, -q_s}, some of them characters, fails its chunked
    relation checks exactly when some member fails its own, and names
    that member's index over the whole family and its first failing
    relation."""
    H = HeckeAlgebra(d)
    coeffs, degrees = draw_laurent_family(d, data)
    first = None
    for k, (cs, ds) in enumerate(zip(coeffs, degrees)):
        values = [Laurent({e: c}) for c, e in zip(cs, ds)]
        try:
            FinModule(H, [[[x]] for x in values], None).check_relations()
        except RelationsFail as exc:
            first = k, str(exc), [str(x) for x in values]
            break
    # at most seven degree slices a member, as the weights are at most 3
    slices = data.draw(st.sampled_from([1, 7, 15, modules.FAMILY_SLICES]))
    with mock.patch.object(modules, "FAMILY_SLICES", slices):
        if first is None:
            modules._check_family(H, coeffs, degrees)
            return
        with pytest.raises(RelationsFail) as caught:
            modules._check_family(H, coeffs, degrees)
    k, relation, values = first
    assert (caught.value.member, caught.value.relation) == ((k,), relation)
    assert str(caught.value) == (f"{relation} in family member ({k},)"
                                 f" with node values {values}")


@settings(max_examples=100, deadline=None)
@given(weighted_data(), st.data())
def test_packed_family_check_matches_laurent_oracle(d, data):
    """A stack of the 1x1 modules of ``draw_laurent_family``, over the
    Laurent ring or read mod 5 at v = 0, gets the same verdict, first
    failing member, relation and node values from the packed check as
    from the ``LaurentMatrix`` word product of the oracle."""
    H = HeckeAlgebra(d)
    coeffs, degrees = map(np.array, draw_laurent_family(d, data))
    members, nodes = coeffs.shape
    stack = np.zeros((nodes, members, degrees.max() + 1, 1, 1), np.int64)
    stack[np.arange(nodes), np.arange(members)[:, None], degrees, 0, 0] = (
        coeffs)
    prime = data.draw(st.sampled_from([None, 5]))
    mod = FinModule(H, LaurentMatrix(0, stack), None, prime=prime)
    assert (verdict(FinModule.check_relations, mod)
            == verdict(laurent_check_relations, mod))


@settings(max_examples=100, deadline=None)
@given(weighted_data(max_rank=3), st.data())
def test_packed_check_matches_laurent_oracle_on_bumped_modules(d, data):
    """An extended character or induced module with a random monomial
    $c v^e$ added to one entry of one generator or length-zero matrix,
    over the Laurent ring or (without poles) mod 5, gets the same verdict
    and failing relation from the packed check as from the oracle."""
    H = HeckeAlgebra(d)
    ch = data.draw(st.sampled_from(modules.enumerate_characters(H, "generic")))
    extends, exts = modules.character_extends(H, ch)
    if extends:
        mod = data.draw(st.sampled_from(exts)).as_module(H)
    else:
        try:
            mod = modules.induce_character(H, ch)
        except modules.NoIndexTwoStructure:
            mod = ch.as_module(H)
    mats = [mod.smats] + ([] if mod.omega_mats is None else [mod.omega_mats])
    which = data.draw(st.integers(0, len(mats) - 1))
    bump = np.zeros((len(mats[which]), 1, mod.dim, mod.dim), np.int64)
    bump[data.draw(st.integers(0, len(bump) - 1)), 0,
         data.draw(st.integers(0, mod.dim - 1)),
         data.draw(st.integers(0, mod.dim - 1))] = data.draw(
             st.integers(-3, 3))
    mats[which] = mats[which] + LaurentMatrix(data.draw(st.integers(-2, 4)),
                                              bump)
    smats, omats = mats[0], (mats[1] if len(mats) > 1 else None)
    bumped = FinModule(H, smats, omats)
    assert (verdict(FinModule.check_relations, bumped)
            == verdict(laurent_check_relations, bumped))
    try:
        reduced = FinModule(H, smats, omats, prime=5)
    except NegativePowersPresent:
        return
    assert (verdict(FinModule.check_relations, reduced)
            == verdict(laurent_check_relations, reduced))
