r"""The extended affine Hecke algebra in its standard basis.

Elements are finite $\mathbb{Z}[v, v^{-1}]$-combinations of basis symbols
$T_w$ indexed by extended affine Weyl group elements.  The defining
relations, with $q_s = v^{2 d(s)}$ for the weight $d(s)$ of node $s$:

* $T_x T_y = T_{xy}$ whenever lengths add,
* $(T_s - q_s)(T_s + 1) = 0$ for every simple reflection.

Products reduce to these via reduced words of the right factor:  $T_x T_s$
is $T_{xs}$ when the length goes up and $q_s T_{xs} + (q_s - 1) T_x$ when
it goes down.  One product walks the prefix trie of the pairs (length-zero
part, reduced word) of the right factor's terms depth first, so each
partial product $h \, T_\omega T_{s_1} \cdots T_{s_k}$ of the left factor
$h$ is computed once and
shared by every term whose word starts with that prefix; a partial product
is released after its last child.  The twisted symbols below take the same
walk with twisted letters.  Each step gives $xs$ and whether $s$ is a
descent of $x$ together, from one sparse rank-one update of the group
element (:meth:`heckelab.extweyl.ExtWeylElt.step`).  One product also
keeps a memo of its steps, one dict per node mapping $x$ to that pair,
so that branches of the trie that meet the same $x$ share the step; the
memo lives only for that product.  Scaling by $q_s$ is a shift of
exponents.

On top of the standard basis the module provides the twisted symbols
$T^*_w$ (products of $T^*_s = T_s - q_s + 1$ along a reduced word), the
algebra automorphism sending $T_w$ to $(-1)^{\ell(w)} T^*_w$, Bernstein
elements $E_\lambda$ for lattice points $\lambda$, and central orbit sums
$z_\mathcal{O} = \sum_{\lambda \in \mathcal{O}} E_\lambda$ (Lusztig 1989),
taken as one product per dominant part of the orbit's points.
$E_\lambda$ is read off one split $\lambda = \lambda_+ - \lambda_-$ into
dominant lattice points, by one rule for the coroot and the effective
lattice: the componentwise positive and negative parts when $\lambda_+$
lies in the lattice, else both shifted by the least $s \ge 0$ that makes
$\lambda_+ + s$ a sum of the lattice's rays $a_i e_i$.  One stacked
method, ``bernstein_split``, checks, splits and counts a whole orbit at
once; central orbit sums and :mod:`heckelab.classify` both read it.

Weights that are not constant on length-zero orbits shrink the algebra:
only translations by the sublattice compatible with the weights give
well-defined basis elements, and constructors raise ``NotInLattice``
outside it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from . import intlin
from .errors import DatumMismatch, NotAFullOrbit, NotInLattice
from .extweyl import ExtWeylElt, aut_group, translation_letter_counts
from .laurent import Laurent, q_power
from .rootdata import RootDatum, Vec, dominant_monoid_generators


class HeckeAlgebra:
    """Context object tying a root datum to its Hecke algebra."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.omega_full = aut_group(datum)
        self.omega = self.omega_full.decorated()
        self.effective_basis = self.omega.lattice_basis()
        self._monoid_generators: dict[str, tuple[Vec, ...]] = {}
        self._letter_counts: dict[str, tuple[Vec, ...]] = {}

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
        if w.datum is not self.datum:
            raise DatumMismatch(
                "group element belongs to a different root datum")
        # the effective lattice is the preimage of the decorated group
        if not self.in_effective_lattice(w.tr):
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
        """Dominant monoid generators of the lattice at ``level``,
        computed once per level."""
        if level not in self._monoid_generators:
            self._monoid_generators[level] = dominant_monoid_generators(
                self.datum, "coroot" if level == "coroot"
                else self._level_basis(level))
        return self._monoid_generators[level]

    def generator_letter_counts(self, level: str) -> tuple[Vec, ...]:
        """Per generator of :meth:`monoid_generators` at ``level``, the
        per-node letter counts of its translation word, computed once per
        level."""
        if level not in self._letter_counts:
            self._letter_counts[level] = tuple(
                translation_letter_counts(self.datum, gen)
                for gen in self.monoid_generators(level))
        return self._letter_counts[level]

    def _stack(self, lam) -> np.ndarray:
        """``lam``, a point or an (N, rank) stack, as an (N, rank) int64
        stack; a point of another length raises ``ValueError``."""
        rank = self.datum.rank
        try:
            pts = np.array(lam, dtype=np.int64)
        except ValueError:
            pts = None
        if pts is None or pts.ndim not in (1, 2) or pts.shape[-1] != rank:
            raise ValueError(f"every point of this rank-{rank} datum has "
                             f"{rank} coordinates")
        return pts.reshape(-1, rank)

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
        one stacked lattice test (:func:`intlin.rows_in_lattice`); the
        parts are then two (N, rank) int64 stacks.  A single point is a
        stack of one and gives a pair of tuples.
        """
        pts = self._stack(lam)
        plus, minus = np.maximum(pts, 0), np.maximum(-pts, 0)
        basis = self._level_basis(level)
        off = ~intlin.rows_in_lattice(basis, plus)
        if off.any():
            shift = -plus[off] % np.array(intlin.lattice_rays(basis))
            plus[off] += shift
            minus[off] += shift
        if np.ndim(lam) == 1:
            return tuple(plus[0].tolist()), tuple(minus[0].tolist())
        return plus, minus

    def bernstein_split(self, lam, level: str = "effective"):
        """The split $E_\\lambda = v^{-\\delta} T^*_{t_+} T_{t_-}$ of
        :meth:`bernstein` at a point or an (N, rank) stack ``lam`` of the
        lattice at ``level``, else ``NotInLattice`` naming the first point
        off it or off the datum's lattice: the (N, rank) stacks ``plus``
        and ``minus`` of :meth:`dominant_decomposition`, the class counts
        (:meth:`RootDatum.translation_class_counts`) of $t_+ = t_{plus}$
        and $t_- = t_{-minus}$, and the exponents $\\delta \\ge 0$."""
        datum = self.datum
        pts = self._stack(lam)
        for basis, name in ((datum.lattice_basis, datum.lattice_name),
                            (self._level_basis(level), level)):
            off = ~intlin.rows_in_lattice(basis, pts)
            if off.any():
                raise NotInLattice(f"{tuple(pts[off][0].tolist())} is not "
                                   f"in the {name} lattice")
        plus, minus = self.dominant_decomposition(pts, level)
        c_plus, c_minus, c_lam = datum.translation_class_counts(
            np.stack((plus, -minus, pts)))
        delta = (c_plus + c_minus - c_lam) @ np.array(datum.class_weights)
        assert (delta >= 0).all()
        return plus, minus, c_plus, c_minus, delta

    def bernstein(self, lam: Sequence[int]) -> "HeckeElt":
        """The Bernstein basis element $E_\\lambda$, normalized so that
        dominant lattice points give twisted basis elements and
        antidominant ones standard basis elements: $v^{-\\delta} T^*_{t_+}
        T_{t_-}$, with $\\delta$ the weighted length the product loses, for
        the split $\\lambda = \\lambda_+ - \\lambda_-$ of
        :meth:`bernstein_split`."""
        return self._bernstein_sum([lam])

    def central(self, lam: Sequence[int]) -> "HeckeElt":
        """The orbit sum z over the finite Weyl orbit of ``lam``."""
        return self._bernstein_sum(self.datum.weyl_orbit(lam))

    def central_from_orbit(self, orbit: Iterable[Sequence[int]]) -> "HeckeElt":
        """Same as :meth:`central` but validates the given orbit first."""
        pts = [tuple(int(x) for x in mu) for mu in orbit]
        if not pts:
            raise NotAFullOrbit("empty orbit")
        expected = set(self.datum.weyl_orbit(pts[0]))
        if set(pts) != expected or len(pts) != len(expected):
            raise NotAFullOrbit(
                f"the {len(pts)} given points do not form one full Weyl "
                f"orbit ({len(expected)} points expected)")
        return self._bernstein_sum(pts)

    def _bernstein_sum(self, pts) -> "HeckeElt":
        """$\\sum_\\mu E_\\mu$ over distinct lattice points ``pts``.

        Points with the same dominant part $\\lambda_+$ share the left
        factor $T^*_{t_+}$, so the sum takes one product per $\\lambda_+$
        with the right factor $\\sum v^{-\\delta} T_{t_{-}}$ over its points.
        """
        plus_s, minus_s, _, _, deltas = self.bernstein_split(pts)
        groups: dict[Vec, dict[ExtWeylElt, Laurent]] = {}
        for plus, neg, delta in zip(map(tuple, plus_s.tolist()),
                                    map(tuple, (-minus_s).tolist()),
                                    deltas.tolist()):
            t_minus = ExtWeylElt.translation(self.datum, neg)
            groups.setdefault(plus, {})[t_minus] = Laurent.v(-delta)
        out: dict[ExtWeylElt, Laurent] = {}
        for plus, right in groups.items():
            left = self.star_t(ExtWeylElt.translation(self.datum, plus))
            for x, a in left._product(right).terms.items():
                _accumulate(out, x, a)
        return HeckeElt._of(self, out)

    def __repr__(self) -> str:
        return f"HeckeAlgebra({self.datum!r})"


class HeckeElt:
    """A finite combination of standard basis symbols with Laurent scalars."""

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

    # ---- linear structure -----------------------------------------------

    def _check(self, other: "HeckeElt") -> None:
        if self.alg is not other.alg and (
                self.alg.datum.to_json() != other.alg.datum.to_json()):
            raise DatumMismatch("elements of different Hecke algebras")

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return HeckeElt(self.alg, out)

    def __neg__(self) -> "HeckeElt":
        return HeckeElt(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        return self + (-other)

    def scale(self, c: Laurent | int) -> "HeckeElt":
        if isinstance(c, int):
            c = Laurent.of_int(c)
        return HeckeElt(self.alg, {w: x * c for w, x in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((w, c) for w, c in self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: ExtWeylElt) -> Laurent:
        return self.terms.get(w, Laurent.zero())

    def support(self) -> list[ExtWeylElt]:
        return sorted(self.terms, key=lambda w: (w.length(), w.tr, w.mat))

    # ---- multiplication ---------------------------------------------------

    def _mul_basis(self, s: int, memo: dict,
                   twisted: bool = False) -> "HeckeElt":
        """Right multiplication by T_s, or by $T^*_s = T_s - q_s + 1$ when
        ``twisted``, for an affine node label ``s``.

        ``memo`` maps x to ``x.step(s)``, the pair of xs and whether s is
        a right descent of x, shared by the letters of one product.
        $T_x T^*_s$ is $q_s T_{xs}$ when s is a descent of x and
        $T_{xs} - (q_s - 1) T_x$ when it is not.
        """
        alg = self.alg
        d2 = 2 * alg.datum.weights[s]
        out: dict[ExtWeylElt, Laurent] = {}
        for x, c in self.terms.items():
            hit = memo.get(x)
            if hit is None:
                hit = memo[x] = x.step(s)
            xs, descent = hit
            if descent:
                cq = c.shift(d2)
                _accumulate(out, xs, cq)
                if not twisted:
                    _accumulate(out, x, cq - c)
            else:
                _accumulate(out, xs, c)
                if twisted:
                    _accumulate(out, x, c - c.shift(d2))
        return HeckeElt._of(alg, out)

    def _mul_omega(self, omega: ExtWeylElt) -> "HeckeElt":
        return HeckeElt(self.alg,
                        {x * omega: c for x, c in self.terms.items()})

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        return self._product(other.terms)

    def _product(self, right: Mapping[ExtWeylElt, Laurent],
                 twisted: bool = False) -> "HeckeElt":
        """``self`` times $\\sum_y c_y T_y$, or $\\sum_y c_y T^*_y$ when
        ``twisted``, for ``right`` mapping y to $c_y$.

        The pairs (length-zero part, reduced word) of the y form a prefix
        trie, one root per length-zero part; a node is a pair
        [coefficient of the term that ends there or None, children by
        letter].  The walk keeps a stack of (parent's partial product,
        letter, child), so each partial product is computed once and
        released once its last child has been taken.
        """
        roots: dict[ExtWeylElt, list] = {}
        for y, cy in right.items():
            omega, word = y.reduced_word()
            node = roots.get(omega)
            if node is None:
                node = roots[omega] = [None, {}]
            for s in word:
                kids = node[1]
                node = kids.get(s)
                if node is None:
                    node = kids[s] = [None, {}]
            node[0] = cy
        steps: list[dict] = [{} for _ in range(self.alg.datum.rank + 1)]
        total: dict[ExtWeylElt, Laurent] | None = None
        for omega, root in roots.items():
            part = self if omega.is_identity() else self._mul_omega(omega)
            stack = [(part, None, root)]
            while stack:
                part, s, (cy, kids) = stack.pop()
                if s is not None:
                    part = part._mul_basis(s, steps[s], twisted)
                if cy is not None:
                    # the first term ending is copied; Z[v, v^-1] has no
                    # zero divisors, so c * cy is never zero
                    if total is None:
                        total = (dict(part.terms) if cy == 1 else
                                 {w: c * cy for w, c in part.terms.items()})
                    else:
                        for w, c in part.terms.items():
                            _accumulate(total, w, c * cy)
                stack.extend((part, t, kid) for t, kid in kids.items())
        return HeckeElt._of(self.alg, total or {})

    # ---- inspection ---------------------------------------------------------

    def min_exponent(self) -> int:
        """Smallest power of v appearing in any coefficient."""
        return min((c.min_exp() for c in self.terms.values()), default=0)

    def all_coeffs_polynomial(self) -> bool:
        return all(not c.has_negative_exponents()
                   for c in self.terms.values())

    def all_coeffs_even(self) -> bool:
        return all(c.only_even_exponents() for c in self.terms.values())

    def __repr__(self) -> str:
        return " + ".join(f"({self.terms[w]})*T[{w!r}]"
                          for w in self.support()) or "0"


def _accumulate(out: dict[ExtWeylElt, Laurent], w: ExtWeylElt,
                c: Laurent) -> None:
    """Add ``c`` to the coefficient of ``w`` in ``out``, dropping zeros."""
    cur = out.get(w)
    tot = c if cur is None else cur + c
    if tot.is_zero():
        out.pop(w, None)
    else:
        out[w] = tot
