r"""The extended affine Hecke algebra in its standard basis.

Elements are finite $\mathbb{Z}[v, v^{-1}]$-combinations of basis symbols
$T_w$ indexed by extended affine Weyl group elements.  The defining
relations, with $q_s = v^{2 d(s)}$ for the weight $d(s)$ of node $s$:

* $T_x T_y = T_{xy}$ whenever lengths add,
* $(T_s - q_s)(T_s + 1) = 0$ for every simple reflection.

Products reduce to these via a reduced word of the right factor, one
letter at a time:  $T_x T_s$ is $T_{xs}$ when the length goes up and
$q_s T_{xs} + (q_s - 1) T_x$ when it goes down.

On top of the standard basis the module provides the twisted symbols
$T^*_w$ (products of $T^*_s = T_s - q_s + 1$ along a reduced word), the
algebra automorphism sending $T_w$ to $(-1)^{\ell(w)} T^*_w$, Bernstein
elements $E_\lambda$ for lattice points $\lambda$, and central orbit sums
$z_\mathcal{O} = \sum_{\lambda \in \mathcal{O}} E_\lambda$.

Weights that are not constant on length-zero orbits shrink the algebra:
only translations by the sublattice compatible with the weights give
well-defined basis elements, and constructors raise ``NotInLattice``
outside it.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import intlin
from .errors import DatumMismatch, NotAFullOrbit, NotInLattice
from .extweyl import ExtWeylElt, aut_group
from .laurent import Laurent, q_power
from .rootdata import RootDatum, Vec


class HeckeAlgebra:
    """Context object tying a root datum to its Hecke algebra."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.omega_full = aut_group(datum)
        self.omega = self.omega_full.decorated()
        self.effective_basis = self.omega.lattice_basis()
        self._omega_elts = set(self.omega.elements)

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
        omega, _ = w.reduced_word()
        if not omega.is_identity() and omega not in self._omega_elts:
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

    def t_translation(self, lam: Sequence[int]) -> "HeckeElt":
        return self.t(ExtWeylElt.translation(self.datum, lam))

    def star_t(self, w: ExtWeylElt) -> "HeckeElt":
        """The twisted basis element T*_w.

        Multiplicative along any length-additive factorization, starting
        from the length-zero part and taking
        $T^*_s = T_s - q_s + 1$ for each letter.
        """
        self._check_supported(w)
        omega, word = w.reduced_word()
        cur = HeckeElt(self, {omega: Laurent.one()})
        for s in word:
            qs1 = self.q(s) - Laurent.one()
            cur = cur._mul_basis(s) - cur.scale(qs1)
        return cur

    def sign_star(self, elt: "HeckeElt") -> "HeckeElt":
        """The automorphism $T_w \\mapsto (-1)^{\\ell(w)} T^*_w$."""
        out = self.zero()
        for w, c in elt.terms.items():
            sign = -1 if w.length() % 2 else 1
            out = out + self.star_t(w).scale(c * sign)
        return out

    # ---- Bernstein elements ---------------------------------------------

    def in_effective_lattice(self, lam: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.effective_basis, lam)

    def dominant_decomposition(self, lam: Sequence[int]) -> tuple[Vec, Vec]:
        """A pair of dominant lattice points with difference ``lam``.

        Componentwise positive and negative parts when both stay in the
        lattice; otherwise both parts are shifted by a strictly dominant
        lattice point, which the multiplicativity of the Bernstein basis
        makes immaterial.
        """
        lam = tuple(int(x) for x in lam)
        plus = tuple(max(x, 0) for x in lam)
        minus = tuple(max(-x, 0) for x in lam)
        if self.datum.in_lattice(plus) and self.in_effective_lattice(plus):
            return plus, minus
        f = abs(intlin.det(self.effective_basis))
        gamma = tuple(f for _ in lam)
        m = max(0, max(-(x // f) for x in lam))
        shift = tuple(m * g for g in gamma)
        return tuple(a + b for a, b in zip(lam, shift)), shift

    def bernstein(self, lam: Sequence[int]) -> "HeckeElt":
        """The Bernstein basis element E_lambda.

        Normalized so that dominant lattice points give twisted basis
        elements and antidominant ones give standard basis elements.
        """
        lam = tuple(int(x) for x in lam)
        if not self.datum.in_lattice(lam):
            raise NotInLattice(f"{lam} is not in the "
                               f"{self.datum.lattice_name} lattice")
        if not self.in_effective_lattice(lam):
            raise NotInLattice(f"translation by {lam} is not compatible "
                               f"with the node weights")
        plus, minus = self.dominant_decomposition(lam)
        t_plus = ExtWeylElt.translation(self.datum, plus)
        t_minus = ExtWeylElt.translation(self.datum, minus)
        t_lam = ExtWeylElt.translation(self.datum, lam)
        delta = (t_plus.weighted_length() + t_minus.weighted_length()
                 - t_lam.weighted_length())
        assert delta >= 0
        neg = tuple(-x for x in minus)
        out = self.star_t(t_plus) * self.t(
            ExtWeylElt.translation(self.datum, neg))
        return out.scale(Laurent.v(-delta))

    def central(self, lam: Sequence[int]) -> "HeckeElt":
        """The orbit sum z over the finite Weyl orbit of ``lam``."""
        orbit = self.datum.weyl_orbit(lam)
        out = self.zero()
        for mu in orbit:
            out = out + self.bernstein(mu)
        return out

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
        out = self.zero()
        for mu in pts:
            out = out + self.bernstein(mu)
        return out

    def __repr__(self) -> str:
        return f"HeckeAlgebra({self.datum!r})"


class HeckeElt:
    """A finite combination of standard basis symbols with Laurent scalars."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: HeckeAlgebra, terms: Mapping[ExtWeylElt, Laurent]):
        self.alg = alg
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

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

    def _mul_basis(self, s: int) -> "HeckeElt":
        """Right multiplication by T_s for an affine node label ``s``."""
        alg = self.alg
        refl = ExtWeylElt.simple_reflection(alg.datum, s)
        qs = alg.q(s)
        qs1 = qs - Laurent.one()
        out: dict[ExtWeylElt, Laurent] = {}

        def add(w: ExtWeylElt, c: Laurent) -> None:
            cur = out.get(w)
            tot = c if cur is None else cur + c
            if tot.is_zero():
                out.pop(w, None)
            else:
                out[w] = tot

        for x, c in self.terms.items():
            xs = x * refl
            if x.right_descent(s):
                add(xs, c * qs)
                add(x, c * qs1)
            else:
                add(xs, c)
        return HeckeElt(alg, out)

    def _mul_omega(self, omega: ExtWeylElt) -> "HeckeElt":
        return HeckeElt(self.alg,
                        {x * omega: c for x, c in self.terms.items()})

    def __mul__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        total = self.alg.zero()
        for y, cy in other.terms.items():
            omega, word = y.reduced_word()
            part = self if omega.is_identity() else self._mul_omega(omega)
            for s in word:
                part = part._mul_basis(s)
            total = total + part.scale(cy)
        return total

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
        if not self.terms:
            return "0"
        bits = []
        for w in self.support():
            bits.append(f"({self.terms[w]})*T[{w!r}]")
        return " + ".join(bits)
