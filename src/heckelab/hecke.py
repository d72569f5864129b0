r"""The extended affine Hecke algebra in its standard basis.

Elements are finite $\mathbb{Z}[v, v^{-1}]$-combinations of basis symbols
$T_w$ indexed by extended affine Weyl group elements.  The defining
relations, with $q_s = v^{2 d(s)}$ for the weight $d(s)$ of node $s$:

* $T_x T_y = T_{xy}$ whenever lengths add,
* $(T_s - q_s)(T_s + 1) = 0$ for every simple reflection.

Products reduce to these via reduced words of the right factor:  $T_x T_s$
is $T_{xs}$ when the length goes up and $q_s T_{xs} + (q_s - 1) T_x$ when
it goes down.  One product walks the prefix trie of the pairs (length-zero
part, reduced word) of the right factor's terms depth first (:func:`_walk`),
so each partial product $h \, T_\omega T_{s_1} \cdots T_{s_k}$ of the left
factor $h$ is computed once; the twisted symbols take the same walk with
twisted letters.  Terms are keyed by alcove vectors and stepped by one
sparse reflection (:func:`heckelab.extweyl.step_vector`), read off the
type's step table, which every product of the type's data shares and
fills (:func:`heckelab.extweyl._step`), so no product builds a matrix,
and an :class:`~heckelab.extweyl.ExtWeylElt` is built only for each term
of the result.  Each coefficient is one Python int, its value
at $v = 2^b$ (Kronecker substitution; Kronecker 1882, Harvey 2009), for one
slot width $b$ per product that a bound on L1 norms proves wide enough:
scaling by $q_s$ is a left shift, sums are integer sums, and each distinct
coefficient of the result is unpacked once into one :class:`Laurent` that
its terms share.

On top of the standard basis the module provides the twisted symbols
$T^*_w$ (products of $T^*_s = T_s - q_s + 1$ along a reduced word), the
algebra automorphism sending $T_w$ to $(-1)^{\ell(w)} T^*_w$, Bernstein
elements $E_\lambda$ for lattice points $\lambda$, and central orbit sums
$z_\mathcal{O} = \sum_{\lambda \in \mathcal{O}} E_\lambda$ (Lusztig 1989),
taken as one twisted walk per dominant part of the orbit's points.
$E_\lambda$ is read off one split $\lambda = \lambda_+ - \lambda_-$ into
dominant lattice points, by one rule for the coroot and the effective
lattice: the componentwise positive and negative parts when $\lambda_+$
lies in the lattice, else both shifted by the least $s \ge 0$ that makes
$\lambda_+ + s$ a sum of the lattice's rays $a_i e_i$.  One stacked
method, ``bernstein_split``, checks and splits a whole orbit at once,
with the exponent $\delta$ of $E_\lambda = v^{-\delta} T^*_{t_+} T_{t_-}$.
Its factors are Bernstein elements, which commute, so a sum walks each
point's $T_{t_-}$ through the twisted letters of $t_+$, never expanding
$T^*_{t_+}$, at the slot width of the L1 bound $\sum_{\lambda_+}
n(\lambda_+) 3^{\ell(t_+)}$ over $n(\lambda_+)$ points per $\lambda_+$.

Weights that are not constant on length-zero orbits shrink the algebra:
only translations by the sublattice compatible with the weights give
well-defined basis elements, and constructors raise ``NotInLattice``
outside it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from . import intlin
from .errors import DatumMismatch, NotInLattice
from .extweyl import ExtWeylElt, _step, aut_group
from .laurent import Laurent, q_power
from .rootdata import (RootDatum, Vec, _LevelTables,
                       dominant_monoid_generators)


class HeckeAlgebra:
    """Context object tying a root datum to its Hecke algebra."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.omega_full = aut_group(datum)
        self.omega = self.omega_full.decorated()
        self.effective_basis = self.omega.lattice_basis()
        self._weighted: dict[str, np.ndarray] = {}

    # ---- scalars -------------------------------------------------------

    def q(self, s: int) -> Laurent:
        return q_power(self.datum.weights[s])

    def q_of(self, w: ExtWeylElt) -> Laurent:
        """The product of q_s along a reduced word of ``w``."""
        return Laurent.v(2 * w.weighted_length())

    # ---- element constructors -------------------------------------------

    def zero(self) -> "HeckeElt":
        return HeckeElt(self, {})

    def one(self) -> "HeckeElt":
        return HeckeElt(self, {ExtWeylElt.identity(self.datum): Laurent.one()})

    def _check_supported(self, w: ExtWeylElt) -> None:
        """Refuse an element of another datum, or one whose length-zero
        part (read off its reduced word, so no matrix is built) is not in
        the decorated group; the effective lattice is that group's
        preimage."""
        if w.datum is not self.datum:
            raise DatumMismatch(
                "group element belongs to a different root datum")
        if w.reduced_word()[0] not in self.omega:
            raise NotInLattice(
                "length-zero part of the index is not compatible with the "
                "node weights, so this basis element does not exist")

    def t(self, w: ExtWeylElt) -> "HeckeElt":
        """The standard basis element T_w."""
        self._check_supported(w)
        return HeckeElt(self, {w: Laurent.one()})

    def t_word(self, word: Iterable[int],
               omega: ExtWeylElt | None = None) -> "HeckeElt":
        return self.t(ExtWeylElt.from_word(self.datum, word, omega))

    def star_t(self, w: ExtWeylElt) -> "HeckeElt":
        """The twisted basis element T*_w.

        Multiplicative along any length-additive factorization, starting
        from the length-zero part and taking
        $T^*_s = T_s - q_s + 1$ for each letter.
        """
        self._check_supported(w)
        return self.one()._product({w: Laurent.one()}, twisted=True)

    def sign_star(self, elt: "HeckeElt") -> "HeckeElt":
        """The automorphism $T_w \\mapsto (-1)^{\\ell(w)} T^*_w$."""
        for w in elt.terms:
            self._check_supported(w)
        signed = {w: -c if w.length() % 2 else c
                  for w, c in elt.terms.items()}
        return self.one()._product(signed, twisted=True)

    # ---- Bernstein elements ---------------------------------------------

    def in_effective_lattice(self, lam: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.effective_basis, lam)

    def _level_basis(self, level: str) -> tuple[Vec, ...]:
        """Echelon basis of the coroot lattice (``level`` ``"coroot"``) or
        of the effective lattice (``"effective"``)."""
        if level == "coroot":
            return self.datum.coroot_basis
        if level == "effective":
            return self.effective_basis
        raise ValueError(f"unknown level {level!r}")

    def monoid_generators(self, level: str) -> tuple[Vec, ...]:
        """Dominant monoid generators of the lattice at ``level``."""
        return self._level_tables(level).generators

    def generator_class_counts(self, level: str) -> np.ndarray:
        """The letters of each node class in a reduced word of the
        translation by each of :meth:`monoid_generators` at ``level``
        (:meth:`RootDatum.translation_class_counts`), a read-only
        (generators, classes) int64 array built and shared with the
        generators."""
        return self._level_tables(level).counts

    def _level_tables(self, level: str) -> _LevelTables:
        """The :class:`~heckelab.rootdata._LevelTables` of the lattice at
        ``level``.  The node weights enter none of them, but they choose
        the effective lattice, so they are built once per level basis and
        kept in the frame's ``_level_generators``."""
        datum, basis = self.datum, self._level_basis(level)
        kept = datum._level_generators
        if basis not in kept:
            gens = dominant_monoid_generators(
                datum, "coroot" if level == "coroot" else basis)
            kept[basis] = _LevelTables(datum, basis, gens)
        return kept[basis]

    def _weighted_counts(self, level: str) -> np.ndarray:
        """:meth:`generator_class_counts` at ``level`` times the class
        weights, column by column, read-only and kept with the algebra:
        row sums are the weighted lengths $L(g)$ of the generators, and
        the product with a generic character's signs its exponents
        (:func:`heckelab.classify.is_discrete_character`)."""
        table = self._weighted.get(level)
        if table is None:
            table = self.generator_class_counts(level) * np.array(
                self.datum.class_weights, dtype=np.int64)
            table.flags.writeable = False
            self._weighted[level] = table
        return table

    def lattice_coordinates(self, lam, level: str = "effective"
                            ) -> np.ndarray:
        """The coordinates of ``lam``, a point or an (N, rank) stack of
        points of the lattice at ``level``, in its echelon basis, as an
        (N, rank) int64 stack (:func:`intlin.lattice_coordinates`), else
        ``NotInLattice`` naming the first point off it.  The coroot and
        effective lattices lie in the datum's lattice, so no point off that
        one passes."""
        pts = self.datum.point_stack(lam)
        coords, rem = intlin.lattice_coordinates(self._level_basis(level),
                                                 pts)
        off = rem.any(axis=1)
        if off.any():
            raise NotInLattice(f"{tuple(pts[off][0].tolist())} is not in "
                               f"the {level} lattice")
        return coords

    def dominant_decomposition(self, lam, level: str = "effective"):
        """A pair of dominant points of the lattice at ``level`` (see
        :meth:`monoid_generators`) with difference ``lam``, a point of
        that lattice.

        The componentwise positive and negative parts when the positive
        part lies in the lattice; otherwise both parts shifted by $s$ with
        $s_i = -\\lambda_{+,i} \\bmod a_i$, where the $a_i e_i$ are the rays
        of the lattice (:func:`intlin.lattice_rays`), so that the positive
        part becomes a sum of rays.  The Bernstein element does not depend
        on the split (Lusztig 1989).

        ``lam`` may be an (N, rank) stack of points, split at once with
        one stacked lattice test (the remainders of
        :func:`intlin.lattice_coordinates`); the parts are then two
        (N, rank) int64 stacks.  A single point is a
        stack of one and gives a pair of tuples.
        """
        pts = self.datum.point_stack(lam)
        plus, minus = np.maximum(pts, 0), np.maximum(-pts, 0)
        basis = self._level_basis(level)
        off = intlin.lattice_coordinates(basis, plus)[1].any(axis=1)
        if off.any():
            shift = -plus[off] % np.array(intlin.lattice_rays(basis))
            plus[off] += shift
            minus[off] += shift
        if np.ndim(lam) == 1:
            return tuple(plus[0].tolist()), tuple(minus[0].tolist())
        return plus, minus

    def bernstein_split(self, lam, level: str = "effective"):
        """The split $E_\\lambda = v^{-\\delta} T^*_{t_+} T_{t_-} =
        v^{-\\delta} T_{t_-} T^*_{t_+}$ of :meth:`bernstein` at a point or
        an (N, rank) stack ``lam`` of the lattice at ``level`` (else
        ``NotInLattice``, from :meth:`lattice_coordinates`): the
        (N, rank) stacks ``plus``
        and ``minus`` of :meth:`dominant_decomposition` and the exponents
        $\\delta \\ge 0$, read off the class counts
        (:meth:`RootDatum.translation_class_counts`) of $t_+ = t_{plus}$,
        $t_- = t_{-minus}$ and $t_\\lambda$."""
        datum = self.datum
        pts = datum.point_stack(lam)
        self.lattice_coordinates(pts, level)
        plus, minus = self.dominant_decomposition(pts, level)
        c_plus, c_minus, c_lam = datum.translation_class_counts(
            np.stack((plus, -minus, pts)))
        delta = (c_plus + c_minus - c_lam) @ np.array(datum.class_weights)
        assert (delta >= 0).all()
        return plus, minus, delta

    def bernstein(self, lam: Sequence[int]) -> "HeckeElt":
        """The Bernstein basis element $E_\\lambda$, normalized so that
        dominant lattice points give twisted basis elements and
        antidominant ones standard basis elements: $v^{-\\delta} T^*_{t_+}
        T_{t_-}$, with $\\delta$ the weighted length the product loses, for
        the split $\\lambda = \\lambda_+ - \\lambda_-$ of
        :meth:`bernstein_split`, taken as the product $v^{-\\delta} T_{t_-}
        T^*_{t_+}$ of commuting factors (:meth:`_bernstein_sum`)."""
        return self._bernstein_sum([lam])

    def central(self, lam: Sequence[int]) -> "HeckeElt":
        """The orbit sum z over the finite Weyl orbit of ``lam``."""
        return self._bernstein_sum(self.datum.weyl_orbit(lam))

    def central_from_orbit(self, orbit) -> "HeckeElt":
        """Same as :meth:`central` but validates the given orbit first:
        ``NotAFullOrbit`` unless its points are one full Weyl orbit, each
        once, in any order, checked against the orbit kept for its
        dominant point (:meth:`RootDatum.orbit_stack`)."""
        return self._bernstein_sum(self.datum.orbit_stack(orbit))

    def _bernstein_sum(self, pts) -> "HeckeElt":
        """$\\sum_\\mu E_\\mu$ over distinct lattice points ``pts``, each
        as $v^{-\\delta} T_{t_-} T^*_{t_+}$: $T^*_{t_+} = \\theta_{\\lambda_+}$
        and $T_{t_-} = \\theta_{-\\lambda_-}$ commute (Lusztig 1989).  Points
        with the same $\\lambda_+$ take one twisted walk (:func:`_walk`) from
        their $T_{t_-}$, one term each, built from its alcove vector; a
        letter splits a term only where it is not a right descent.  A letter
        at most triples the L1 norm, so the slot width (:meth:`_product`) of
        $\\sum_{\\lambda_+} n(\\lambda_+) 3^{\\ell(t_+)}$ serves the sum."""
        datum = self.datum
        v0, den = datum.alcove_point
        plus_s, minus_s, deltas = self.bernstein_split(pts)
        groups: dict[Vec, list] = {}
        for plus, q, delta in zip(map(tuple, plus_s.tolist()),
                                  map(tuple, (den * minus_s + v0).tolist()),
                                  deltas.tolist()):
            groups.setdefault(plus, []).append((q, delta))
        stars = {plus: ExtWeylElt.translation(datum, plus).reduced_word()
                 for plus in groups}
        b = sum(len(left) * 3 ** len(stars[plus][1])
                for plus, left in groups.items()).bit_length() + 1
        lo = -int(deltas.max())
        total: dict[Vec, int] = {}
        for plus, left in groups.items():
            _walk(datum, {ExtWeylElt(datum, q): 1 << b * (-delta - lo)
                          for q, delta in left},
                  [(stars[plus], 1)], True, b, total)
        return HeckeElt._unpacked(self, total, b, lo)

    def __repr__(self) -> str:
        return f"HeckeAlgebra({self.datum!r})"


class HeckeElt:
    """A finite combination of standard basis symbols with Laurent scalars.

    The coefficients are immutable :class:`Laurent` objects, which terms
    and elements may share: a product hands one object to every term
    with the same coefficient."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: HeckeAlgebra, terms: Mapping[ExtWeylElt, Laurent]):
        self.alg = alg
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    @staticmethod
    def _of(alg: HeckeAlgebra, terms: dict[ExtWeylElt, Laurent]) -> "HeckeElt":
        """Wrap a dict that holds no zero coefficient, without copying."""
        out = object.__new__(HeckeElt)
        out.alg = alg
        out.terms = terms
        return out

    @staticmethod
    def _unpacked(alg: HeckeAlgebra, terms: dict[Vec, int], b: int,
                  lo: int) -> "HeckeElt":
        """The element of ``alg`` with the nonzero terms of ``terms``,
        keyed by alcove vectors, with coefficients packed with slot width
        ``b`` from $v^{lo}$ up (:meth:`Laurent.pack`): one group element
        of ``alg``'s datum per term, and one :class:`Laurent`, decoded
        once, per distinct packed value, shared by every term that
        carries it."""
        datum, coeffs, out = alg.datum, {}, {}
        for q, c in terms.items():
            if c:
                x = coeffs.get(c)
                if x is None:
                    x = coeffs[c] = Laurent.unpack(c, b, lo)
                out[ExtWeylElt(datum, q)] = x
        return HeckeElt._of(alg, out)

    # ---- linear structure -----------------------------------------------

    def _same_algebra(self, other: "HeckeElt") -> bool:
        """Whether ``other`` lies in the same algebra: the same object, or
        one of an equal datum."""
        return self.alg is other.alg or self.alg.datum == other.alg.datum

    def _check(self, other: "HeckeElt") -> None:
        if not self._same_algebra(other):
            raise DatumMismatch("elements of different Hecke algebras")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        """The sum; terms of an equal algebra built apart are rebuilt on
        this datum from their alcove vectors, as in a product."""
        self._check(other)
        out = dict(self.terms)
        terms = other.terms
        if other.alg is not self.alg:
            datum = self.alg.datum
            terms = {ExtWeylElt(datum, w.q): c for w, c in terms.items()}
        for w, c in terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return HeckeElt(self.alg, out)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def scale(self, c: Laurent | int) -> "HeckeElt":
        """``c`` times this element, for a Laurent polynomial or an
        integer that is not a bool (numpy integers count); anything else
        raises ``TypeError``."""
        if not isinstance(c, Laurent):
            if not intlin.is_int(c):
                raise TypeError("a Hecke element scales only by Laurent "
                                f"polynomials and integers, not {c!r}")
            c = Laurent.of_int(int(c))
        return HeckeElt(self.alg, {w: x * c for w, x in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self._same_algebra(other) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((w, c) for w, c in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: ExtWeylElt) -> Laurent:
        return self.terms.get(w, Laurent.zero())

    def support(self) -> list[ExtWeylElt]:
        return sorted(self.terms, key=lambda w: (w.length(), w.tr, w.mat))

    # ---- multiplication ---------------------------------------------------

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return self._product(other.terms)

    def _product(self, right: Mapping[ExtWeylElt, Laurent],
                 twisted: bool = False) -> "HeckeElt":
        """``self`` times $\\sum_y c_y T_y$, or $\\sum_y c_y T^*_y$ when
        ``twisted``, for ``right`` mapping y to $c_y$ (:func:`_walk`).

        Each coefficient is packed into one int (:meth:`Laurent.pack`) at
        the least exponents of the factors, since exponents only rise
        along the walk.  Packing is a ring map, so only the coefficients
        of the result must fit the slot width $b$.  A letter at most
        triples the L1 norm of the coefficients ($(q_s - 1) c$ adds at
        most $2 |c|$), so every coefficient of the result is at most
        $|h|_1 \\sum_y 3^{\\ell(y)} |c_y|_1$, and $2^{b-1}$ above that
        bound proves the width $b$ with no test at run time.  Terms of a
        product share one :class:`Laurent` per distinct coefficient
        (:meth:`_unpacked`), so the least exponent, the L1 norm and the
        packed int are taken once per distinct coefficient object of each
        factor.
        """
        terms = self.terms
        lefts, norms, norm = {}, {}, 0
        for c in terms.values():
            k = id(c)
            if k not in lefts:
                lefts[k] = c
                norms[k] = c.norm1()
            norm += norms[k]
        rights, words, norm_right = {}, [], 0
        for y, c in right.items():
            k = id(c)
            if k not in rights:
                rights[k] = c
                norms[k] = c.norm1()
            word = y.reduced_word()
            words.append((word, k))
            norm_right += 3 ** len(word[1]) * norms[k]
        b = (norm * norm_right).bit_length() + 1
        lo = min(map(Laurent.min_exp, lefts.values()), default=0)
        lo_right = min(map(Laurent.min_exp, rights.values()), default=0)
        lefts = {k: c.pack(b, lo) for k, c in lefts.items()}
        rights = {k: c.pack(b, lo_right) for k, c in rights.items()}
        total = _walk(self.alg.datum,
                      {x: lefts[id(c)] for x, c in terms.items()},
                      [(rw, rights[k]) for rw, k in words], twisted, b, {})
        return HeckeElt._unpacked(self.alg, total, b, lo + lo_right)

    # ---- inspection ---------------------------------------------------------

    def all_coeffs_polynomial(self) -> bool:
        return all(not c.has_negative_exponents()
                   for c in self.terms.values())

    def all_coeffs_even(self) -> bool:
        return all(c.only_even_exponents() for c in self.terms.values())

    def __repr__(self) -> str:
        return " + ".join(f"({self.terms[w]})*T[{w!r}]"
                          for w in self.support()) or "0"


def _walk(datum: RootDatum, left: Mapping[ExtWeylElt, int],
          right: Iterable[tuple[tuple[ExtWeylElt, tuple[int, ...]], int]],
          twisted: bool, b: int, total: dict[Vec, int]) -> dict[Vec, int]:
    """Add $h \\sum_y c_y T_y$, or $h \\sum_y c_y T^*_y$ when ``twisted``,
    into ``total`` and return it, for $h$ the terms ``left`` and ``right``
    the pairs (``y.reduced_word()``, $c_y$), all coefficients packed with
    slot width ``b``.

    The reduced words form a prefix trie, one root per length-zero part
    $\\omega$, which starts from the terms $x \\omega$
    (:meth:`ExtWeylElt.__mul__`); a node is [coefficient of the term that
    ends there or None, children by letter].  The walk keeps a stack of
    (parent's partial product, letter, child), so each partial product is
    computed once and released after its last child.  Partial products
    and their sum are keyed by alcove vectors, and each letter steps
    through the type's step table, kept across products
    (:func:`_mul_letter`).  Sums that cancelled are left in ``total`` as
    zeros.
    """
    roots: dict[ExtWeylElt, list] = {}
    for (omega, word), cy in right:
        node = roots.get(omega)
        if node is None:
            node = roots[omega] = [None, {}]
        for s in word:
            kids = node[1]
            node = kids.get(s)
            if node is None:
                node = kids[s] = [None, {}]
        node[0] = cy
    for omega, root in roots.items():
        if omega.is_identity():
            part = {x.q: c for x, c in left.items()}
        else:
            part = {(x * omega).q: c for x, c in left.items()}
        stack = [(part, None, root)]
        while stack:
            part, s, (cy, kids) = stack.pop()
            if s is not None:
                part = _mul_letter(datum, part, s, twisted,
                                   2 * datum.weights[s] * b)
            if cy is not None:
                get = total.get
                for q, c in part.items():
                    total[q] = get(q, 0) + c * cy
            stack.extend((part, t, kid) for t, kid in kids.items())
    return total


def _mul_letter(datum: RootDatum, part: dict[Vec, int], s: int,
                twisted: bool, shift: int) -> dict[Vec, int]:
    """Right multiplication of the terms ``part``, keyed by alcove
    vectors with packed coefficients, by T_s, or by $T^*_s = T_s - q_s +
    1$ when ``twisted``, for an affine node label ``s``; multiplying a
    packed coefficient by $q_s$ is ``<< shift``.

    The alcove vector of xs and whether s is a right descent of x are
    read off the frame's step table (:func:`heckelab.extweyl._step`),
    which the letters s of every product of the type share and fill.
    $T_x T_s$ is $q_s T_{xs} + (q_s - 1) T_x$ when s is a descent of x
    and $T_{xs}$ when it is not; $T_x T^*_s$ is $q_s T_{xs}$ when s is a
    descent of x and $T_{xs} - (q_s - 1) T_x$ when it is not.
    """
    out: dict[Vec, int] = {}
    get = out.get
    merged = False
    for x, c in part.items():
        xs, descent = _step(datum, x, s)
        if descent:
            a = c << shift
            extra = None if twisted else a - c
        else:
            a = c
            extra = c - (c << shift) if twisted else None
        # x -> xs is a bijection, so a key is met twice only as the xs of
        # one term and the x of another
        cur = get(xs)
        if cur is not None:
            a, merged = cur + a, True
        out[xs] = a
        if extra is not None:
            cur = get(x)
            if cur is not None:
                extra, merged = cur + extra, True
            out[x] = extra
    if merged:
        return {q: c for q, c in out.items() if c}
    return out
