r"""The extended affine Weyl group acting on coweights and affine roots.

An element is an affine-linear map $x \mapsto \lambda + w(x)$ on the
coweight space, stored as the translation vector $\lambda$ together with
the matrix of $w$ in fundamental-coweight coordinates and the matrix of
$w$ in simple-root coordinates.  The two matrices are transpose-inverses
of each other, which makes group inversion a pair of transposes.

Affine roots are pairs ``(beta, k)`` standing for the affine function
$x \mapsto \langle \beta, x \rangle + k$; the pair is positive when
$k > 0$, or $k = 0$ and $\beta$ is a positive root.  The group acts by
$(\lambda, w)\cdot(\beta, k) = (w\beta,\; k - \langle w\beta, \lambda\rangle)$.

Lengths, descents and reduced words all come from this action; nothing in
here ever enumerates the group itself except the explicit helper
:func:`elements_up_to_length`.

Right multiplication by a simple reflection and its descent test are one
step (:meth:`ExtWeylElt.step`; Casselman, *Machine calculations in Weyl
groups*, 1994): a rank-one update that reads and rewrites only the
nonzero entries of the node's coroot and root, at most four in every
supported type.  Reduced words, words back to elements and
:func:`elements_up_to_length` take this step only; the general product
:meth:`ExtWeylElt.__mul__` is for two arbitrary elements.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Sequence

import numpy as np

from . import intlin
from .errors import DatumMismatch, NotInLattice
from .rootdata import RootDatum, Vec

AffineRoot = tuple[Vec, int]


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
    """An element of the extended affine Weyl group of a root datum."""

    __slots__ = ("datum", "tr", "mat", "rmat", "_rw", "_hash")

    def __init__(self, datum: RootDatum, tr: Vec,
                 mat: tuple[Vec, ...], rmat: tuple[Vec, ...]):
        self.datum = datum
        self.tr = tr
        self.mat = mat
        self.rmat = rmat
        self._rw: tuple[ExtWeylElt, tuple[int, ...]] | None = None
        self._hash: int | None = None

    # ---- constructors -------------------------------------------------

    @staticmethod
    def identity(datum: RootDatum) -> "ExtWeylElt":
        eye = intlin.identity(datum.rank)
        return ExtWeylElt(datum, (0,) * datum.rank, eye, eye)

    @staticmethod
    def translation(datum: RootDatum, c: Sequence[int]) -> "ExtWeylElt":
        c = tuple(int(x) for x in c)
        if not datum.in_lattice(c):
            raise NotInLattice(f"{c} is not in the {datum.lattice_name} "
                               f"lattice of {datum.label()}")
        eye = intlin.identity(datum.rank)
        return ExtWeylElt(datum, c, eye, eye)

    @staticmethod
    def simple_reflection(datum: RootDatum, s: int) -> "ExtWeylElt":
        """The reflection at affine node ``s`` in 0..rank."""
        rank = datum.rank
        if not 0 <= s <= rank:
            raise ValueError(f"node label {s} out of range 0..{rank}")
        cache = datum.simple_reflections
        if s in cache:
            return cache[s]
        if s == 0:
            root, cov = datum.theta, datum.theta_coroot
            tr = cov
        else:
            root, cov = datum.simple_root(s), datum.simple_coroot(s)
            tr = (0,) * rank
        mat = tuple(
            tuple(int(j == k) - cov[j] * root[k] for k in range(rank))
            for j in range(rank)
        )
        elt = ExtWeylElt(datum, tr, mat, intlin.transpose(mat))
        cache[s] = elt
        return elt

    @staticmethod
    def from_word(datum: RootDatum, word: Iterable[int],
                  omega: "ExtWeylElt | None" = None) -> "ExtWeylElt":
        out = omega if omega is not None else ExtWeylElt.identity(datum)
        for s in word:
            out = out.step(s)[0]
        return out

    # ---- group structure ------------------------------------------------

    def _check(self, other: "ExtWeylElt") -> None:
        if self.datum is not other.datum and (
                self.datum.to_json() != other.datum.to_json()):
            raise DatumMismatch("elements come from different root data")

    def __mul__(self, other: "ExtWeylElt") -> "ExtWeylElt":
        self._check(other)
        tr = tuple(a + b for a, b in
                   zip(self.tr, intlin.mat_vec(self.mat, other.tr)))
        return ExtWeylElt(self.datum, tr,
                          intlin.mat_mul(self.mat, other.mat),
                          intlin.mat_mul(self.rmat, other.rmat))

    def mul_simple(self, s: int) -> "ExtWeylElt":
        """Right product with the reflection at node ``s``."""
        return self.step(s)[0]

    def step(self, s: int) -> tuple["ExtWeylElt", bool]:
        """Right product with the reflection at node ``s`` and whether
        ``s`` is a right descent, as one rank-one update: with the sparse
        ``cov`` and ``root`` of :attr:`RootDatum.node_supports`, ``mat``
        loses ``u (x) root`` for ``u = mat cov``, ``rmat`` loses
        ``a (x) cov`` for ``a = rmat root`` (read by :func:`_descends`),
        and node 0 moves the translation by ``u``."""
        d = self.datum
        if not 0 <= s <= d.rank:
            raise ValueError(f"node label {s} out of range 0..{d.rank}")
        cov, root = d.node_supports[s]
        mat, u = _rank_one(self.mat, cov, root)
        rmat, a = _rank_one(self.rmat, root, cov)
        tr = tuple(map(add, self.tr, u)) if s == 0 else self.tr
        return ExtWeylElt(d, tr, mat, rmat), _descends(s, a, self.tr)

    def inv(self) -> "ExtWeylElt":
        mat_inv = intlin.transpose(self.rmat)
        tr = tuple(-x for x in intlin.mat_vec(mat_inv, self.tr))
        return ExtWeylElt(self.datum, tr, mat_inv, intlin.transpose(self.mat))

    def __pow__(self, n: int) -> "ExtWeylElt":
        base = self if n >= 0 else self.inv()
        n = abs(n)
        out = ExtWeylElt.identity(self.datum)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtWeylElt):
            return NotImplemented
        return self.tr == other.tr and self.mat == other.mat

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.tr, self.mat))
        return self._hash

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
        return self.mat == intlin.identity(self.datum.rank)

    def is_identity(self) -> bool:
        return self.is_translation() and not any(self.tr)

    def _wall_counts(self) -> np.ndarray:
        """Per positive root $\\beta$, $m = \\langle w\\beta, \\lambda
        \\rangle + [w\\beta < 0]$: the inversions of gradient
        $\\pm\\beta$ lie on $H_{\\beta,k}$, $k = 0..m-1$ or $m..-1$."""
        img = np.array(self.rmat, dtype=np.int64) @ (
            self.datum._hyperplane_classes[0])
        return np.array(self.tr, dtype=np.int64) @ img + (img < 0).any(axis=0)

    def length(self) -> int:
        """Number of positive affine roots sent to negative ones."""
        return int(np.abs(self._wall_counts()).sum())

    def right_descent(self, s: int) -> bool:
        """Whether multiplying by the reflection at node ``s`` drops length
        (:func:`_descends`)."""
        d = self.datum
        if not 0 <= s <= d.rank:
            raise ValueError(f"node label {s} out of range 0..{d.rank}")
        a = ([row[s - 1] for row in self.rmat] if s else
             [sum(map(mul, row, d.theta)) for row in self.rmat])
        return _descends(s, a, self.tr)

    def descents(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.datum.rank + 1)
                     if self.right_descent(s))

    def reduced_word(self) -> tuple["ExtWeylElt", tuple[int, ...]]:
        """Split as (length-zero part, reduced word): self = omega * word."""
        if self._rw is not None:
            return self._rw
        cur = self
        collected: list[int] = []
        while True:
            s = next((i for i in range(self.datum.rank + 1)
                      if cur.right_descent(i)), None)
            if s is None:
                break
            collected.append(s)
            cur = cur.step(s)[0]
        self._rw = (cur, tuple(reversed(collected)))
        return self._rw

    def weighted_length(self) -> int:
        """Sum of node weights along a reduced word: the class weights
        over the inversions (:meth:`RootDatum.hyperplane_class_counts`)."""
        d = self.datum
        return int(d.hyperplane_class_counts(self._wall_counts())
                   @ d.class_weights)

    # ---- presentation -----------------------------------------------------

    def __repr__(self) -> str:
        omega, word = self.reduced_word()
        w = "".join(f"s{int(i)}" for i in word) or "e"
        if omega.is_identity():
            return f"<{w}>"
        return f"<t{list(omega.tr)}*{w}>" if omega.is_translation() else (
            f"<omega{list(omega.tr)}*{w}>")

    def to_json(self) -> dict:
        return {"translation": list(self.tr),
                "matrix": [list(r) for r in self.mat]}


def _descends(s: int, a: list[int], tr: Vec) -> bool:
    """Whether an element with translation ``tr`` and finite part sending
    the root of node ``s`` to ``a`` makes the simple affine root at ``s``
    negative: its image is ``(a, -<a, tr>)``, ``(-a, 1 + <a, tr>)`` at 0."""
    p = sum(map(mul, a, tr))
    if s:
        return p > 0 or (p == 0 and min(a) < 0)
    return p < -1 or (p == -1 and max(a) > 0)


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
    """A reduced word for the translation by ``lam`` (letters only).

    Walks the images of the simple affine roots instead of multiplying
    matrices, so it is much faster than ``reduced_word`` on long
    translations.  The missing length-zero part is recoverable from the
    coset of ``lam`` modulo the coroot lattice.
    """
    rank = datum.rank
    a = datum.affine_cartan
    lam = tuple(int(x) for x in lam)
    imgs: list[list] = []
    for i in range(rank + 1):
        beta, k = affine_simple(datum, i)
        imgs.append([list(beta), k - sum(p * q for p, q in zip(beta, lam))])
    expected = sum(abs(sum(r * c for r, c in zip(root, lam)))
                   for root, _ in datum.pos_roots)
    collected: list[int] = []
    while True:
        j = None
        for i in range(rank + 1):
            beta, k = imgs[i]
            if k < 0 or (k == 0 and any(x < 0 for x in beta)):
                j = i
                break
        if j is None:
            break
        collected.append(j)
        bj, kj = imgs[j]
        row = a[j]
        for t in range(rank + 1):
            if t == j:
                continue
            coef = row[t]
            if coef:
                bt, kt = imgs[t]
                for x in range(rank):
                    bt[x] -= coef * bj[x]
                imgs[t][1] = kt - coef * kj
        imgs[j] = [[-x for x in bj], -kj]
    assert len(collected) == expected
    return tuple(reversed(collected))


def translation_letter_counts(datum: RootDatum,
                              lam: Sequence[int]) -> tuple[int, ...]:
    """How often each affine node occurs in ``translation_word(datum, lam)``."""
    counts = [0] * (datum.rank + 1)
    for s in translation_word(datum, lam):
        counts[s] += 1
    return tuple(counts)


class OmegaGroup:
    """The finite abelian group of length-zero elements.

    ``elements[k]`` is the group element and ``perms[k]`` the permutation
    it induces on affine node labels; index 0 is the identity.
    """

    def __init__(self, datum: RootDatum, elements: tuple[ExtWeylElt, ...],
                 perms: tuple[tuple[int, ...], ...],
                 by_coset: dict[Vec, int] | None = None):
        self.datum = datum
        self.elements = elements
        self.perms = perms
        self._index = {e: i for i, e in enumerate(elements)}
        self._by_coset = by_coset or {}
        self._products: dict[tuple[int, int], int] = {}

    @staticmethod
    def build(datum: RootDatum) -> "OmegaGroup":
        items = []
        for rep in datum.lattice_cosets():
            omega, _ = ExtWeylElt.translation(datum, rep).reduced_word()
            perm = _node_permutation(datum, omega)
            items.append((perm, omega, rep))
        items.sort(key=lambda t: t[0])
        perms = tuple(t[0] for t in items)
        elements = tuple(t[1] for t in items)
        by_coset = {rep: i for i, (_, _, rep) in enumerate(items)}
        assert perms[0] == tuple(range(datum.rank + 1))
        assert len(set(perms)) == len(perms)
        return OmegaGroup(datum, elements, perms, by_coset)

    def element_for_translation(self, lam: Sequence[int]) -> ExtWeylElt:
        """The length-zero part of the translation by ``lam``."""
        key = self.datum.coset_mod_coroots(lam)
        if key not in self._by_coset:
            raise KeyError(f"coset of {tuple(lam)} has no length-zero "
                           f"element in this group")
        return self.elements[self._by_coset[key]]

    def translation_indices(self, pts) -> list[int]:
        """Indices in :attr:`elements` of the length-zero parts of the
        translations by an (N, rank) stack of points, read off their
        coroot-coset representatives (one stacked
        :func:`intlin.reduce_rows_mod_lattice`)."""
        reps = intlin.reduce_rows_mod_lattice(self.datum.coroot_basis, pts)
        return [self._by_coset[rep] for rep in map(tuple, reps.tolist())]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, elt: ExtWeylElt) -> int:
        return self._index[elt]

    def structure(self) -> str:
        """Isomorphism type, e.g. ``"1"``, ``"Z/4"``, ``"Z/2 x Z/2"``."""
        n = len(self.elements)
        if n == 1:
            return "1"
        orders = sorted(_perm_order(p) for p in self.perms)
        exponent = orders[-1]
        if exponent == n:
            return f"Z/{n}"
        if (n, exponent) == (4, 2):
            return "Z/2 x Z/2"
        if (n, exponent) == (8, 2):
            return "Z/2 x Z/2 x Z/2"
        if (n, exponent) == (8, 4):
            return "Z/4 x Z/2"
        if (n, exponent) == (9, 3):
            return "Z/3 x Z/3"
        raise AssertionError(f"unrecognized abelian group of order {n}")

    def preserves_weights(self, perm: tuple[int, ...]) -> bool:
        w = self.datum.weights
        return all(w[perm[i]] == w[i] for i in range(len(perm)))

    def decorated(self) -> "OmegaGroup":
        """The subgroup whose node permutations preserve the weights."""
        keep = [(p, e) for p, e in zip(self.perms, self.elements)
                if self.preserves_weights(p)]
        elements = tuple(e for _, e in keep)
        kept = set(elements)
        sub = OmegaGroup(self.datum, elements, tuple(p for p, _ in keep))
        sub._by_coset = {c: elements.index(self.elements[i])
                         for c, i in self._by_coset.items()
                         if self.elements[i] in kept}
        return sub

    def mult_index(self, i: int, j: int) -> int:
        """Index of ``elements[i] * elements[j]``, computed once per pair."""
        if (i, j) not in self._products:
            product = self.elements[i] * self.elements[j]
            self._products[i, j] = self._index[product]
        return self._products[i, j]

    def lattice_basis(self) -> tuple[Vec, ...]:
        """Echelon basis of the lattice of translations whose length-zero
        parts lie in this group, from the coroots and the representative
        of each coroot coset those parts index, in ``lattice_cosets``
        order."""
        rows = list(self.datum.cartan) + sorted(self._by_coset)
        return intlin.echelon_basis(rows, self.datum.rank)

    def inverse_index(self, i: int) -> int:
        return self._index[self.elements[i].inv()]

    def node_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the group on affine node labels, sorted."""
        n = self.datum.rank + 1
        seen: set[int] = set()
        orbits = []
        for i in range(n):
            if i in seen:
                continue
            orbit = {perm[i] for perm in self.perms} | {i}
            while True:
                grown = {perm[j] for perm in self.perms for j in orbit}
                if grown <= orbit:
                    break
                orbit |= grown
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return tuple(orbits)


def _node_permutation(datum: RootDatum, omega: ExtWeylElt) -> tuple[int, ...]:
    simples = [affine_simple(datum, i) for i in range(datum.rank + 1)]
    lookup = {a: i for i, a in enumerate(simples)}
    perm = []
    for i in range(datum.rank + 1):
        image = omega.act_affine_root(simples[i])
        assert image in lookup, "length-zero element must permute the walls"
        perm.append(lookup[image])
    return tuple(perm)


def _perm_order(perm: tuple[int, ...]) -> int:
    n = 1
    cur = perm
    ident = tuple(range(len(perm)))
    while cur != ident:
        cur = tuple(perm[i] for i in cur)
        n += 1
    return n


def aut_group(datum: RootDatum) -> OmegaGroup:
    """The group of length-zero elements (lattice modulo coroot lattice)."""
    return OmegaGroup.build(datum)


def decorated_aut_group(datum: RootDatum) -> OmegaGroup:
    """Length-zero elements compatible with the node weights."""
    return OmegaGroup.build(datum).decorated()


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
