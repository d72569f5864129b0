r"""The extended affine Weyl group acting on coweights and affine roots.

An element is an affine-linear map $x \mapsto \lambda + w(x)$ on the
coweight space: the translation vector $\lambda$, the matrix of $w$ in
fundamental-coweight coordinates and the matrix of $w$ in simple-root
coordinates, transpose-inverses of each other.

Affine roots are pairs ``(beta, k)`` standing for the affine function
$x \mapsto \langle \beta, x \rangle + k$; the pair is positive when
$k > 0$, or $k = 0$ and $\beta$ is a positive root.  The group acts by
$(\lambda, w)\cdot(\beta, k) = (w\beta,\; k - \langle w\beta, \lambda\rangle)$.

An element is identified by its *alcove vector* $q = D\, w^{-1}(x_0)$,
one tuple of integers (Iwahori and Matsumoto, Publ. IHES 25 (1965);
Humphreys, *Reflection Groups and Coxeter Groups*, ch. 4).  The point
$x_0 = v_0 / D$ of the base alcove (:attr:`RootDatum.alcove_point`) takes
pairwise distinct values on the simple affine roots, so no length-zero
element fixes it, and the affine Weyl group acts simply transitively on
alcoves: $q$ determines the element.  Everything the Hecke algebra asks
of an element is read off $q$:

* the step $x \mapsto xs$ is the affine reflection of $q$ at node $s$, a
  sparse update of at most four entries, and $s$ is a right descent of
  $x$ when the simple affine root at $s$ is negative at $q / D$
  (:func:`step_vector`, kept per type by :func:`_step`, which both
  :meth:`ExtWeylElt.step` and the letters of a Hecke product read);
* a reduced word walks $q$ back into the base alcove, where the vector
  reached names the length-zero part (:func:`aut_group`);
* the length counts the hyperplanes between $x_0$ and $q / D$: per
  positive root $\beta$, $|\lfloor \langle \beta, q \rangle / D \rfloor|$;
* equality and hashing compare $q$.

The length-zero group $\Omega \cong X / Q^\vee$ is read off alcove
vectors, once per type and lattice, since the node weights do not enter
it, and bound to each datum (:func:`aut_group`): the translation by a coset
representative $\lambda$ walks $v_0 - D\lambda$ to a vector $q$ where the
simple affine root at node $i$ is $(\pi(i) + 1) / D$, for $\pi$ the
permutation of the walls.  $\pi$ gives the affine map, and $\Omega$ is
abelian and acts faithfully on the nodes, so its law is that of $\pi$.

The matrices are built only when read: the constructors that hold them
(:meth:`ExtWeylElt.identity`, :meth:`ExtWeylElt.translation`,
:meth:`ExtWeylElt.inv`, the elements of the length-zero group and
products of two elements that both have them) keep them, and an element
made by steps, a simple reflection among them, replays its reduced word
from its length-zero part with one sparse rank-one update per letter.
A product $xy$ reads only the affine map of $y$, so multiplying by a
length-zero element never builds the matrices of $x$.
"""

from __future__ import annotations

import functools
import itertools
import types
from operator import add, mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import intlin
from .errors import DatumMismatch, NotInLattice
from .rootdata import RootDatum, Vec

AffineRoot = tuple[Vec, int]
Affine = tuple[Vec, tuple[Vec, ...], tuple[Vec, ...]]

# Steps a node's table keeps (:func:`_step`).  A seed-11 kernel benchmark
# pass fills at most 976 at one node (B3) and the criterion-7 battery
# about 7,000; an entry costs about 140 bytes, so a type holds at most
# about 0.6 MB per node.
STEP_TABLE_SIZE = 4096


def affine_simple(datum: RootDatum, i: int) -> AffineRoot:
    """The simple affine root at node ``i`` (0 is the affine node)."""
    if i == 0:
        return (tuple(-x for x in datum.theta), 1)
    return (datum.simple_root(i), 0)


def affine_root_is_positive(a: AffineRoot) -> bool:
    beta, k = a
    if k != 0:
        return k > 0
    return not any(x < 0 for x in beta)


class ExtWeylElt:
    """An element of the extended affine Weyl group of a root datum,
    identified by its alcove vector ``q``; ``_aff`` is the affine map
    ``(tr, mat, rmat)`` once known."""

    __slots__ = ("datum", "q", "_aff", "_rw")

    def __init__(self, datum: RootDatum, q: Vec, aff: Affine | None = None):
        self.datum = datum
        self.q = q
        self._aff = aff
        self._rw: tuple[ExtWeylElt, tuple[int, ...]] | None = None

    # ---- constructors -------------------------------------------------

    @staticmethod
    def identity(datum: RootDatum) -> "ExtWeylElt":
        eye = intlin.identity(datum.rank)
        return ExtWeylElt(datum, datum.alcove_point[0],
                          ((0,) * datum.rank, eye, eye))

    @staticmethod
    def translation(datum: RootDatum, c: Sequence[int]) -> "ExtWeylElt":
        """The translation by ``c``, with alcove vector $v_0 - D c$: a
        point that :meth:`RootDatum.point_stack` accepts, in the
        lattice."""
        (c,) = datum.point_stack(c).tolist()
        c = tuple(c)
        if not datum.in_lattice(c):
            raise NotInLattice(f"{c} is not in the {datum.lattice_name} "
                               f"lattice of {datum.label()}")
        eye = intlin.identity(datum.rank)
        return ExtWeylElt(datum, _translation_vector(datum, c), (c, eye, eye))

    @staticmethod
    def simple_reflection(datum: RootDatum, s: int) -> "ExtWeylElt":
        """The reflection at affine node ``s`` in 0..rank: the identity
        stepped at ``s``."""
        return ExtWeylElt.identity(datum).step(s)[0]

    @staticmethod
    def from_word(datum: RootDatum, word: Iterable[int],
                  omega: "ExtWeylElt | None" = None) -> "ExtWeylElt":
        out = omega if omega is not None else ExtWeylElt.identity(datum)
        for s in word:
            out = out.step(s)[0]
        return out

    # ---- the affine map, built when read ----------------------------------

    def _affine(self) -> Affine:
        if self._aff is None:
            self._aff = self._materialize()
        return self._aff

    def _materialize(self) -> Affine:
        """``(tr, mat, rmat)`` of an element made by steps: its reduced
        word replayed from its length-zero part."""
        omega, word = self.reduced_word()
        return _replay(self.datum, omega._affine(), word)

    @property
    def tr(self) -> Vec:
        """The translation vector, in fundamental-coweight coordinates."""
        return self._affine()[0]

    @property
    def mat(self) -> tuple[Vec, ...]:
        """The finite part in fundamental-coweight coordinates."""
        return self._affine()[1]

    @property
    def rmat(self) -> tuple[Vec, ...]:
        """The finite part in simple-root coordinates."""
        return self._affine()[2]

    # ---- group structure ------------------------------------------------

    def _check(self, other: "ExtWeylElt") -> None:
        # the identity test first spares every product of one datum the
        # call of RootDatum.__eq__, a tenth of the product's time
        if self.datum is not other.datum and self.datum != other.datum:
            raise DatumMismatch("elements come from different root data")

    def __mul__(self, other: "ExtWeylElt") -> "ExtWeylElt":
        """The product: $q_{xy} = D\\, y^{-1}(q_x / D)$, the alcove vector
        of ``self`` pulled back by the affine map of ``other``
        (:func:`_pull_back`), or ``self`` stepped along the reduced word of
        ``other`` when its matrices are not built; an identity factor
        gives the other factor back.  The product keeps matrices when
        both factors have them."""
        self._check(other)
        v0 = self.datum.alcove_point[0]
        if self.q == v0:
            return other
        if other.q == v0:
            return self
        if other._aff is None:
            omega, word = other.reduced_word()
            return ExtWeylElt.from_word(self.datum, word, self * omega)
        q = _pull_back(self.q, other._aff, self.datum.alcove_point[1])
        aff = None
        if self._aff is not None:
            (tr0, mat0, rmat0), (tr, mat, rmat) = self._aff, other._aff
            aff = (tuple(map(add, tr0, intlin.mat_vec(mat0, tr))),
                   intlin.mat_mul(mat0, mat), intlin.mat_mul(rmat0, rmat))
        return ExtWeylElt(self.datum, q, aff)

    def step(self, s: int) -> tuple["ExtWeylElt", bool]:
        """Right product with the reflection at node ``s`` and whether
        ``s`` is a right descent: the alcove vector reflected by
        :func:`step_vector`, read off the type's step table
        (:func:`_step`).  ``s`` is an integer that is not a bool (numpy
        integers count and step as Python ints), else ``TypeError``, in
        0..rank, else ``ValueError``; every constructor that takes node
        letters steps here."""
        d = self.datum
        if not intlin.is_int(s):
            raise TypeError(f"node label {s!r} is not an integer")
        s = int(s)
        if not 0 <= s <= d.rank:
            raise ValueError(f"node label {s} out of range 0..{d.rank}")
        q, descent = _step(d, self.q, s)
        return ExtWeylElt(d, q), descent

    def inv(self) -> "ExtWeylElt":
        tr, mat, rmat = self._affine()
        mat_inv = intlin.transpose(rmat)
        aff = (tuple(-x for x in intlin.mat_vec(mat_inv, tr)), mat_inv,
               intlin.transpose(mat))
        v0, den = self.datum.alcove_point
        return ExtWeylElt(self.datum, _pull_back(v0, aff, den), aff)

    def __eq__(self, other: object) -> bool:
        """Equal alcove vectors on data that :meth:`_check` accepts."""
        if not isinstance(other, ExtWeylElt):
            return NotImplemented
        return self.q == other.q and (self.datum is other.datum
                                      or self.datum == other.datum)

    def __hash__(self) -> int:
        return hash(self.q)

    # ---- actions --------------------------------------------------------

    def act_coweight(self, x: Sequence[int]) -> Vec:
        return tuple(a + b for a, b in
                     zip(self.tr, intlin.mat_vec(self.mat, x)))

    def act_root(self, beta: Sequence[int]) -> Vec:
        """Action of the finite part on a root, in root coordinates."""
        return intlin.mat_vec(self.rmat, beta)

    def act_affine_root(self, a: AffineRoot) -> AffineRoot:
        beta, k = a
        wbeta = intlin.mat_vec(self.rmat, beta)
        return (wbeta, k - sum(p * q for p, q in zip(wbeta, self.tr)))

    # ---- length and words -------------------------------------------------

    def is_translation(self) -> bool:
        """Whether the finite part is the identity: $q - v_0$ lies in
        $D \\mathbb{Z}^\\ell$ (then $w^{-1}(x_0) - x_0$ is a coweight
        $-\\lambda$, and $t_\\lambda w^{-1}$ fixes $x_0$)."""
        v0, den = self.datum.alcove_point
        return all((a - b) % den == 0 for a, b in zip(self.q, v0))

    def is_identity(self) -> bool:
        return self.q == self.datum.alcove_point[0]

    def _floors(self) -> np.ndarray:
        """Per positive root $\\beta$, $M = \\lfloor \\langle \\beta, q
        \\rangle / D \\rfloor$: the inversions of gradient $\\pm\\beta$ lie
        on $H_{\\beta,k}$, $k = 1..M$ or $M+1..0$."""
        d = self.datum
        return (np.array(self.q, dtype=np.int64) @ d._hyperplane_classes[0]
                ) // d.alcove_point[1]

    def length(self) -> int:
        """Number of positive affine roots sent to negative ones."""
        return int(np.abs(self._floors()).sum())

    def right_descent(self, s: int) -> bool:
        """Whether multiplying by the reflection at node ``s`` drops
        length (:meth:`step`)."""
        return self.step(s)[1]

    def reduced_word(self) -> tuple["ExtWeylElt", tuple[int, ...]]:
        """Split as (length-zero part, reduced word): self = omega * word.
        The alcove vector walks back into the base alcove (:func:`_walk`),
        and the vector it reaches names the length-zero part."""
        if self._rw is None:
            d = self.datum
            q, walk = _walk(d, self.q)
            group = aut_group(d)
            self._rw = (group.elements[group._index[q]],
                        tuple(reversed(walk)))
        return self._rw

    def weighted_length(self) -> int:
        """Sum of node weights along a reduced word: the class weights
        over the inversions (:meth:`RootDatum.hyperplane_class_counts`,
        whose hyperplanes $k = 0..m-1$ or $m..-1$ at $m = -M$ are those of
        :meth:`_floors` negated, with the same parities)."""
        d = self.datum
        return int(d.hyperplane_class_counts(-self._floors())
                   @ d.class_weights)

    # ---- presentation -----------------------------------------------------

    def __repr__(self) -> str:
        omega, word = self.reduced_word()
        w = "".join(f"s{int(i)}" for i in word) or "e"
        if omega.is_identity():
            return f"<{w}>"
        return f"<t{list(omega.tr)}*{w}>" if omega.is_translation() else (
            f"<omega{list(omega.tr)}*{w}>")


def step_vector(datum: RootDatum, q: Vec, s: int) -> tuple[Vec, bool]:
    """For the element x with alcove vector ``q`` and a node ``s`` in
    0..rank, the alcove vector of xs and whether ``s`` is a right descent
    of x.  The vector of xs is ``q`` reflected at node ``s``: ``q - q_s
    cov``, or ``q - (<theta, q> - D) cov`` at node 0, with ``cov`` the
    sparse coroot of :attr:`RootDatum.node_supports`; ``s`` descends when
    that coefficient is negative at ``s`` or positive at 0.
    :meth:`ExtWeylElt.step` and the letters of a Hecke product both step
    here, through the type's table (:func:`_step`)."""
    if s:
        x = q[s - 1]
        descent = x < 0
    else:
        x = sum(map(mul, q, datum.theta)) - datum.alcove_point[1]
        descent = x > 0
    out = list(q)
    for k, c in datum.node_supports[s][0]:
        out[k] -= x * c
    return tuple(out), descent


def _step(datum: RootDatum, q: Vec, s: int) -> tuple[Vec, bool]:
    """:func:`step_vector` of ``q`` at node ``s``, kept in the frame's
    ``_steps[s]``, which the data of the type share whatever their
    weights and lattices.  A table that holds ``STEP_TABLE_SIZE`` steps
    is emptied before the next one is kept, so a type keeps at most
    (rank + 1) times that many."""
    table = datum._steps[s]
    hit = table.get(q)
    if hit is None:
        if len(table) >= STEP_TABLE_SIZE:
            table.clear()
        hit = table[q] = step_vector(datum, q, s)
    return hit


def _walk(datum: RootDatum, q: Vec) -> tuple[Vec, list[int]]:
    """The alcove vector reached from ``q`` by stepping at the first
    descent (node 0 first) until none is left, and the nodes stepped at,
    in order: x times those reflections is the length-zero part."""
    theta, den = datum.theta, datum.alcove_point[1]
    supports = datum.node_supports
    q = list(q)
    walk: list[int] = []
    while True:
        x = sum(map(mul, q, theta)) - den
        if x > 0:
            s = 0
        else:
            for s, x in enumerate(q, 1):
                if x < 0:
                    break
            else:
                break
        for k, c in supports[s][0]:
            q[k] -= x * c
        walk.append(s)
    return tuple(q), walk


def _pull_back(q: Vec, aff: Affine, den: int) -> Vec:
    """$D\\, y^{-1}(q / D)$ for the element y with the affine map ``aff``:
    ``rmat`` transposed (the inverse of ``mat``) times ``q - D tr``."""
    tr, _, rmat = aff
    z = [a - den * b for a, b in zip(q, tr)]
    return tuple(sum(map(mul, col, z)) for col in zip(*rmat))


def _replay(datum: RootDatum, aff: Affine, word: Iterable[int]) -> Affine:
    """The affine map of ``aff`` times the reflections of ``word``, one
    rank-one update per letter: ``mat`` loses ``u (x) root`` for
    ``u = mat cov``, ``rmat`` loses ``(rmat root) (x) cov``, and node 0
    moves the translation by ``u``."""
    tr, mat, rmat = aff
    for s in word:
        cov, root = datum.node_supports[s]
        mat, u = _rank_one(mat, cov, root)
        rmat, _ = _rank_one(rmat, root, cov)
        if s == 0:
            tr = tuple(map(add, tr, u))
    return tr, mat, rmat


def _rank_one(m: tuple[Vec, ...], v, w) -> tuple[tuple[Vec, ...], list[int]]:
    """``m - (m v) (x) w`` and ``m v`` for sparse vectors ``v`` and ``w``
    given as (index, entry) pairs."""
    out, mv = [], []
    for row in m:
        x = 0
        for k, c in v:
            x += row[k] * c
        if x:
            row = list(row)
            for k, c in w:
                row[k] -= x * c
            row = tuple(row)
        out.append(row)
        mv.append(x)
    return tuple(out), mv


def translation_word(datum: RootDatum, lam: Sequence[int]) -> tuple[int, ...]:
    """A reduced word for the translation by ``lam`` (letters only): the
    walk of its alcove vector $v_0 - D\\lambda$ back into the base alcove
    (:func:`_walk`), read backwards, the word
    :meth:`ExtWeylElt.reduced_word` gives.  The missing length-zero part
    is recoverable from the coset of ``lam`` modulo the coroot lattice.
    ``lam`` is a point that :meth:`RootDatum.point_stack` accepts.
    """
    (lam,) = datum.point_stack(lam).tolist()
    _, walk = _walk(datum, _translation_vector(datum, lam))
    return tuple(reversed(walk))


def _translation_vector(datum: RootDatum, lam: Sequence[int]) -> Vec:
    """The alcove vector $v_0 - D\\lambda$ of the translation by ``lam``."""
    v0, den = datum.alcove_point
    return tuple(a - den * b for a, b in zip(v0, lam))


class OmegaGroup:
    """The finite abelian group of length-zero elements.

    ``elements[k]`` is the group element and ``perms[k]`` the permutation
    it induces on affine node labels; index 0 is the identity.  The group
    acts faithfully on the nodes, so products and inverses are read off
    the permutations.
    """

    def __init__(self, datum: RootDatum, elements: tuple[ExtWeylElt, ...],
                 perms: tuple[tuple[int, ...], ...],
                 by_coset: Mapping[Vec, int]):
        self.datum = datum
        self.elements = elements
        self.perms = perms
        self._index = {e.q: i for i, e in enumerate(elements)}
        self._by_perm = {p: i for i, p in enumerate(perms)}
        self._by_coset = by_coset

    @staticmethod
    def build(datum: RootDatum) -> "OmegaGroup":
        """The group of ``datum``: the weight-free parts of its type and
        lattice (:func:`_omega_frame`), with each element bound to
        ``datum``."""
        perms, qs, affs, by_coset = _omega_frame(datum)
        elements = tuple(ExtWeylElt(datum, q, aff)
                         for q, aff in zip(qs, affs))
        return OmegaGroup(datum, elements, perms, by_coset)

    def translation_indices(self, pts) -> list[int]:
        """Indices in :attr:`elements` of the length-zero parts of the
        translations by an (N, rank) stack of points, read off their
        coroot-coset representatives: the remainders of one stacked
        :func:`intlin.lattice_coordinates`."""
        reps = intlin.lattice_coordinates(self.datum.coroot_basis, pts)[1]
        return [self._by_coset[rep] for rep in map(tuple, reps.tolist())]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, elt: ExtWeylElt) -> bool:
        return elt.q in self._index

    def index_of(self, elt: ExtWeylElt) -> int:
        return self._index[elt.q]

    def structure(self) -> str:
        """Isomorphism type, ``"1"``, ``"Z/n"`` or ``"Z/2 x Z/2"``: a
        subgroup of the coweight lattice modulo the coroot lattice, which
        is cyclic for an irreducible datum except for $D_n$, $n$ even."""
        n, exponent = len(self.perms), max(map(_perm_order, self.perms))
        if exponent == n:
            return "1" if n == 1 else f"Z/{n}"
        assert (n, exponent) == (4, 2), f"unrecognized group of order {n}"
        return "Z/2 x Z/2"

    def decorated(self) -> "OmegaGroup":
        """The subgroup whose node permutations preserve the weights."""
        w = self.datum.weights
        keep = [i for i, p in enumerate(self.perms)
                if all(w[j] == x for j, x in zip(p, w))]
        new = {i: k for k, i in enumerate(keep)}
        return OmegaGroup(
            self.datum, tuple(self.elements[i] for i in keep),
            tuple(self.perms[i] for i in keep),
            {c: new[i] for c, i in self._by_coset.items() if i in new})

    def mult_index(self, i: int, j: int) -> int:
        """Index of ``elements[i] * elements[j]``, the element permuting
        the nodes by ``perms[i]`` after ``perms[j]``."""
        first, then = self.perms[j], self.perms[i]
        return self._by_perm[tuple(then[k] for k in first)]

    @functools.cached_property
    def sign_characters(self) -> tuple[tuple[int, ...], ...]:
        """The homomorphisms from the group to $\\{\\pm 1\\}$, each as the
        signs of :attr:`elements`, the trivial one first; derived on the
        first read and kept with the group."""
        n = len(self.perms)
        pairs = [(i, j, self.mult_index(i, j))
                 for i in range(n) for j in range(n)]
        return tuple(signs for signs in (
            (1,) + rest for rest in itertools.product((1, -1), repeat=n - 1))
            if all(signs[k] == signs[i] * signs[j] for i, j, k in pairs))

    def lattice_basis(self) -> tuple[Vec, ...]:
        """Echelon basis of the lattice of translations whose length-zero
        parts lie in this group, from the coroots and the representative
        of each coroot coset those parts index, in ``lattice_cosets``
        order (:func:`_coset_lattice`)."""
        return _coset_lattice(self.datum.cartan,
                              tuple(sorted(self._by_coset)))

    def node_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the group on affine node labels, sorted: the images
        of each node."""
        return tuple(sorted({tuple(sorted({perm[i] for perm in self.perms}))
                             for i in range(self.datum.rank + 1)}))


@functools.cache
def _coset_lattice(cartan: tuple[Vec, ...],
                   reps: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Echelon basis of the lattice spanned by the simple coroots (the
    rows of ``cartan``) and the coset representatives ``reps``, built
    once per pair and process: the weights enter only through the choice
    of ``reps``."""
    return intlin.echelon_basis(cartan + reps, len(cartan))


def _omega_frame(datum: RootDatum):
    """``(perms, qs, affs, by_coset)`` for the length-zero group of
    ``datum``'s type and lattice, which the node weights do not enter:
    one element per coset of the coroot lattice in the lattice, the
    length-zero part of the translation by the coset's representative
    (:meth:`RootDatum.lattice_cosets`, which keeps only the
    representatives in the lattice), named by the alcove vector ``q`` that
    :func:`_walk` reaches, whose entries give the wall permutation (see
    the module docstring) and with it the affine map
    (:func:`_wall_affine`); sorted by permutation, the identity first,
    and ``by_coset`` the index of each coset's representative.  Walked
    once per lattice basis and kept in the frame's ``_omega_frames``."""
    frame = datum._omega_frames.get(datum.lattice_basis)
    if frame is not None:
        return frame
    den, n = datum.alcove_point[1], datum.rank + 1
    items = []
    for rep in datum.lattice_cosets():
        q, _ = _walk(datum, _translation_vector(datum, rep))
        perm = ((den - 1 - sum(map(mul, q, datum.theta)),)
                + tuple(x - 1 for x in q))
        assert sorted(perm) == list(range(n)), (
            "length-zero element must permute the walls")
        items.append((perm, q, rep))
    items.sort()
    perms = tuple(t[0] for t in items)
    assert perms[0] == tuple(range(n))
    assert len(set(perms)) == len(perms)
    frame = (perms, tuple(t[1] for t in items),
             tuple(_wall_affine(datum, perm, q) for perm, q, _ in items),
             types.MappingProxyType(
                 {rep: i for i, (_, _, rep) in enumerate(items)}))
    datum._omega_frames[datum.lattice_basis] = frame
    return frame


def _wall_affine(datum: RootDatum, perm: tuple[int, ...], q: Vec) -> Affine:
    """The affine map of the length-zero element with alcove vector ``q``
    and wall permutation ``perm``: ``rmat`` sends $e_i$ to the gradient of
    node ``perm[i]`` ($-\\theta$ at node 0), ``mat`` has the gradients of
    the inverse permutation as rows, and ``tr`` takes $q / D$ to $x_0$."""
    grads = (tuple(-x for x in datum.theta),) + intlin.identity(datum.rank)
    mat = tuple(grads[i] for i in _perm_inverse(perm)[1:])
    rmat = intlin.transpose([grads[i] for i in perm[1:]])
    v0, den = datum.alcove_point
    tr = tuple((a - b) // den for a, b in zip(v0, intlin.mat_vec(mat, q)))
    return tr, mat, rmat


def _perm_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _perm_order(perm: tuple[int, ...]) -> int:
    n = 1
    cur = perm
    ident = tuple(range(len(perm)))
    while cur != ident:
        cur = tuple(perm[i] for i in cur)
        n += 1
    return n


def aut_group(datum: RootDatum) -> OmegaGroup:
    """The group of length-zero elements (lattice modulo coroot lattice)
    of ``datum``, kept in :attr:`RootDatum.length_zero_group`: its
    weight-free parts are built once per type and lattice
    (:func:`_omega_frame`), and only their binding to the datum once
    per datum."""
    if datum.length_zero_group is None:
        datum.length_zero_group = OmegaGroup.build(datum)
    return datum.length_zero_group


def decorated_aut_group(datum: RootDatum) -> OmegaGroup:
    """Length-zero elements compatible with the node weights."""
    return aut_group(datum).decorated()


def effective_lattice(datum: RootDatum) -> tuple[Vec, ...]:
    """Echelon basis of the sublattice whose translations stay compatible
    with the node weights (the preimage of the decorated subgroup)."""
    return decorated_aut_group(datum).lattice_basis()


def elements_up_to_length(datum: RootDatum, max_len: int,
                          extended: bool = False) -> list[ExtWeylElt]:
    """All elements of length at most ``max_len``, by breadth-first search.

    With ``extended`` true the list includes every length-zero translate,
    so it covers the full extended group rather than the affine Weyl group.
    """
    start = ExtWeylElt.identity(datum)
    layer = {start}
    seen = {start}
    for _ in range(max_len):
        nxt = set()
        for w in layer:
            for s in range(datum.rank + 1):
                ws, descent = w.step(s)
                if not descent and ws not in seen:
                    nxt.add(ws)
        seen |= nxt
        layer = nxt
    out = list(seen)
    if extended:
        omegas = [om for om in aut_group(datum) if not om.is_identity()]
        out += [om * w for om in omegas for w in out]
    return out
