"""Discreteness, supersingularity and the classification search.

A one dimensional character is *discrete* when a weighted letter count is
strictly negative on every generator of the monoid of dominant lattice
points: for a generator $\\mu$ take any reduced word of the translation
by $\\mu$ and add $+d(s)$ for every letter whose generator acts by
$q^{d(s)}$ and $-d(s)$ for every letter acting by $-1$.  The count does
not depend on the chosen reduced word because the letter classes of a
reduced word are determined by the element.  Characters of the
non-extended algebra are tested over the coroot lattice, extended
characters over the sublattice compatible with the node weights.

A finite dimensional module over the reduction at $v = 0$ in
characteristic $p$ is *supersingular* when every central orbit sum acts
nilpotently; it suffices to check the orbits of the dominant monoid
generators since orbit sums multiply up to lower-order terms.  The matrix
of a central element at $v = 0$ is extracted without expanding the
element: each orbit summand is a product of generator matrices with a
known leading normalization, and only the coefficient of the normalizing
power of $v$ is needed.  An orbit is taken as one stack of points, split
and counted at once by :meth:`HeckeAlgebra.bernstein_split`, the split
that also builds central elements exactly.  On a monomial module
(diagonal $T_s$ and $T^*_s$, length-zero elements acting by signed
permutations, every entry a unit $\\pm v^e$) the coefficients of the whole orbit are integer arrays read
off the per-class counts of the hyperplanes the two translations cross,
with no word; every other module multiplies, per point, two exact
polynomial matrices mod $p$, memoized products of the matrices of the
monoid generators, which alone replay their translation words.  Both
routes, and the nilpotency test, are exact for every prime $p < 2^{63}$,
the bound of a mod-$p$ module's int64 tensors.

The search routine walks the case analysis: a discrete non-special
character that extends (one dimensional answer), discrete characters
none of which extend (two dimensional induced answer), only the special
character discrete on a simply laced diagram (twisted reflection module),
and type $A$ with equal weights (excluded: no supersingular discrete
answer exists there).  Type $A$ is decided by the affine diagram, not by
its label, so D3, whose diagram is that of A3, is excluded with it.  The
three answers share one path: the module is reduced mod $p$, tested for
supersingularity and recorded in one certificate shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extweyl import translation_letter_counts, translation_word
from .hecke import HeckeAlgebra
from .laurent import LaurentMatrix
from .modules import (Character, FinModule, character_extends,
                      enumerate_characters, induce_character,
                      reflection_module, stabilizer_and_twist, _as_algebra)
from .rootdata import INFINITE_BOND

CASE_ONE_DIM = "Character1Dim"
CASE_TWO_DIM = "Induced2Dim"
CASE_REFLECTION = "ReflectionTwist"
CASE_EXCLUDED_A = "ExcludedTypeA"
CASE_UNHANDLED = "UnhandledCase"

#: Fundamental coweight sampled by default for the two biggest types: the
#: orbit of the node-7 coweight (the smallest orbit, 56 points) and of the
#: node-8 coweight (the coroot of the highest root, 240 points).  Sampling
#: stays so that default reports are byte-stable; ``exhaustive`` runs
#: every generator orbit.
SAMPLED_ORBIT_NODE = {("E", 7): 7, ("E", 8): 8}


def translation_exponent(algebra: HeckeAlgebra, char: Character,
                         lam) -> int:
    """The signed weighted letter count of the translation by ``lam``."""
    return _signed_exponent(
        algebra, char, translation_letter_counts(algebra.datum, lam))


def _signed_exponent(algebra: HeckeAlgebra, char: Character,
                     counts) -> int:
    """Sum over nodes of letter count times weight, signed by ``char``."""
    total = 0
    for s, n in enumerate(counts):
        if n:
            d = n * algebra.datum.weights[s]
            total += d if char.sign_on_node(s) == 1 else -d
    return total


def _level(length_zero) -> str:
    """The lattice a module or character sees, by its length-zero matrices
    or signs ``length_zero``: the coroot lattice without them."""
    return "coroot" if length_zero is None else "effective"


def is_discrete_character(algebra, char: Character):
    """Strict negativity of the exponent on every dominant generator.

    The lattice is read off the character: the coroot lattice for a
    character of the non-extended algebra, the effective lattice for one
    with length-zero signs.  Returns ``(flag, table)`` where the table
    lists each generator with its exponent; the flag is true exactly when
    all exponents are negative.
    """
    alg = _as_algebra(algebra)
    assert char.mode == "generic"
    level = _level(char.omega_signs)
    rows = [{"generator": list(gen),
             "exponent": _signed_exponent(alg, char, counts)}
            for gen, counts in zip(alg.monoid_generators(level),
                                   alg.generator_letter_counts(level))]
    return (all(row["exponent"] < 0 for row in rows),
            {"level": level, "rows": rows})


# ---- central action at v = 0 in characteristic p -------------------------


def _mod_p(mats: LaurentMatrix, p: int) -> LaurentMatrix:
    """Coefficients reduced into ``[0, p)`` on int64, trimmed."""
    return LaurentMatrix(mats.lo, (mats.coeffs % p).astype(np.int64),
                         p - 1).trim()


def _coefficient(a: LaurentMatrix, b: LaurentMatrix, e: int,
                 p: int) -> np.ndarray:
    """The coefficient of $v^e$ in ``a @ b`` mod ``p``: the sum of
    $a_k b_{e-k}$ over the overlap of the two degree ranges, contracted as
    one product of $[a_k \\cdots]$ by $[b_{e-k}; \\cdots]$ so that
    :class:`LaurentMatrix` checks its int64 bound."""
    k = np.arange(max(a.lo, e - b.lo - len(b.coeffs) + 1),
                  min(a.lo + len(a.coeffs), e - b.lo + 1))
    n = a.coeffs.shape[-1]
    x = a.coeffs[k - a.lo].transpose(1, 0, 2).reshape(n, -1)
    y = b.coeffs[e - b.lo - k].reshape(-1, n)
    flat = LaurentMatrix(0, x[None], p - 1) @ LaurentMatrix(0, y[None], p - 1)
    return (flat.coeffs[0] % p).astype(np.int64)


def _monomial_entries(mats: LaurentMatrix):
    """For a stack of K monomial matrices, each row and each column holding
    exactly one nonzero entry and that entry a unit $\\pm v^e$: three
    (K, n) int64 arrays indexed by matrix and row, of the entry's column,
    its sign bit (1 for $-1$) and its exponent $e$.  ``None`` for any
    other stack."""
    nz = mats.coeffs != 0
    terms = nz.sum(axis=-3)
    if (terms > 1).any() or (terms.sum(axis=-1) != 1).any() or (
            terms.sum(axis=-2) != 1).any():
        return None
    cols = terms.argmax(axis=-1)
    k, rows = np.indices(cols.shape)
    degs = nz[k, :, rows, cols].argmax(axis=-1)
    coefs = mats.coeffs[k, degs, rows, cols]
    if (np.abs(coefs) != 1).any():
        return None
    return cols, (coefs < 0).astype(np.int64), mats.lo + degs


class _OrbitActor:
    """The normalized summands of central orbit sums at $v = 0$ mod ``p``
    on a Laurent module, one orbit at a time as one stack.

    An orbit is one (N, rank) int64 stack of points.  One stacked split
    (:meth:`HeckeAlgebra.bernstein_split`) gives every point its dominant
    parts ``plus`` and ``minus``, the class letter counts of $t_{plus}$
    and $t_{-minus}$ and the exponent $\\delta$ of the normalizing power
    of $v$, and the summands come out as one (N, n, n) stack.

    A module whose matrices of $T_s$ and $T^*_s$ are diagonal and whose
    length-zero matrices are monomial, every nonzero entry a unit
    $\\pm v^e$ (characters, their extensions, induced modules), takes the
    *monomial route*: the summands are monomial matrices whose exponents
    and signs are integer arrays over the stack, read off the class
    counts and the length-zero indices of the two translations, with no
    word.  Any other module takes the *dense route*: the summand at a
    point is the product of the halves $A(\\mu) = \\rho(T^*_{t_\\mu})$ at
    its dominant part and $B(\\nu) = \\rho(T_{t_{-\\nu}})$ at its
    antidominant part, exact untruncated Laurent matrices mod ``p``.
    Dominant translations are length-additive, so
    $A(\\mu) = A(\\mu - g) A(g)$ for a monoid generator $g \\le \\mu$,
    and likewise for $B$ (Lusztig, *Affine Hecke algebras and their graded
    version*, JAMS 1989): only the generators replay their words, and
    every half is memoized for the life of the actor, one orbit."""

    def __init__(self, module: FinModule, p: int):
        assert not module.is_modular
        self.module = module
        self.p = p
        self.n = module.dim
        self.level = _level(module.omega_mats)
        self.star = (module.smats - module.q_stack()
                     + LaurentMatrix.identity(self.n))  # T*_s = T_s - q_s + 1
        self._halves: tuple[dict, dict] = ({}, {})  # B, A by coweight
        self.monomial = self._monomial_form()

    def _monomial_form(self):
        """``(T_s, T*_s, length-zero)`` entries of :func:`_monomial_entries`,
        one row per node class for the first two (diagonal) and per
        length-zero element for the last, or ``None`` when the module is
        not of that shape.  The braid relations make diagonal entries
        equal along odd bonds; a module where they differ within a class
        takes the dense route."""
        mod, n = self.module, self.n
        if mod.omega_mats is None:
            omega = (np.arange(n)[None], *np.zeros((2, 1, n), np.int64))
        else:
            omega = _monomial_entries(mod.omega_mats)
        t = _monomial_entries(mod.smats)
        star = _monomial_entries(self.star)
        datum = mod.alg.datum
        first = [cls[0] for cls in datum.classes]
        rep = [first[datum.class_of_node[s]] for s in range(datum.rank + 1)]
        if omega is None or t is None or star is None or any(
                (a != a[rep]).any() for e in (t, star) for a in e) or any(
                (e[0] != np.arange(n)).any() for e in (t, star)):
            return None
        return tuple(a[first] for a in t), tuple(a[first] for a in star), omega

    def orbit_terms(self, orbit) -> np.ndarray:
        """The (N, n, n) stack of matrix coefficients of the normalized
        summands at the N points of ``orbit``: at each point ``lam``, the
        coefficient of $v^{\\delta}$ in the product
        $T_{\\omega_1} \\prod T^*_{s} \\cdot T_{\\omega_2} \\prod T_{t}$
        following the dominant/antidominant split of ``lam``."""
        plus, minus, c_plus, c_neg, delta = self.module.alg.bernstein_split(
            orbit, self.level)
        if self.monomial is not None:
            return self._monomial_terms(plus, minus, c_plus, c_neg, delta)
        terms = [self._dense_term(a, b, e) for a, b, e in
                 zip(map(tuple, plus.tolist()), map(tuple, minus.tolist()),
                     delta.tolist())]
        return np.array(terms, dtype=np.int64).reshape(-1, self.n, self.n)

    def _monomial_terms(self, plus, minus, c_plus, c_neg,
                        delta) -> np.ndarray:
        """:meth:`orbit_terms` on the monomial route.  At each point the
        product $T_{\\omega_1} D_1 T_{\\omega_2} D_2$ sends row ``i`` to
        column ``j`` of $T_{\\omega_1}$, then to column ``k`` of
        $T_{\\omega_2}$; the diagonals $D_1$ of $T^*$ and $D_2$ of $T$ have
        exponents and sign counts linear in the class counts.  The entry
        is kept when its exponent is $\\delta$, with value $1$ or $p - 1$
        by the parity of its signs."""
        (_, t_neg, t_exp), (_, s_neg, s_exp), (o_cols, o_neg, o_exp) = (
            self.monomial)
        omega = self.module.alg.omega
        g1 = omega.translation_indices(plus)
        g2 = omega.translation_indices(-minus)
        rows = np.arange(len(delta))[:, None]
        j = o_cols[g1]
        k = o_cols[g2][rows, j]
        exp = (o_exp[g1] + (c_plus @ s_exp)[rows, j]
               + o_exp[g2][rows, j] + (c_neg @ t_exp)[rows, k])
        neg = (o_neg[g1] + (c_plus @ s_neg)[rows, j]
               + o_neg[g2][rows, j] + (c_neg @ t_neg)[rows, k])
        r, i = np.nonzero(exp == delta[:, None])
        out = np.zeros((len(delta), self.n, self.n), dtype=np.int64)
        out[r, i, k[r, i]] = np.where(neg[r, i] % 2, self.p - 1, 1)
        return out

    def _half(self, twisted: bool, mu) -> LaurentMatrix:
        """$A(\\mu)$ when ``twisted``, else $B(\\mu)$, for a dominant
        ``mu`` of the lattice whose monoid generators the module sees."""
        half = self._halves[twisted].get(mu)
        if half is not None:
            return half
        mod, p = self.module, self.p
        gens = mod.alg.monoid_generators(self.level)
        if not any(mu):
            half = LaurentMatrix.identity(self.n)
        elif mu in gens:
            lam = mu if twisted else tuple(-x for x in mu)
            mats = self.star if twisted else mod.smats
            half = (LaurentMatrix.identity(self.n) if mod.omega_mats is None
                    else _mod_p(mod.omega_mats[
                        mod.alg.omega.translation_indices([lam])[0]], p))
            for s in translation_word(mod.alg.datum, lam):
                half = _mod_p(half @ mats[s], p)
        else:
            g = next(g for g in gens if all(a >= b for a, b in zip(mu, g)))
            rest = tuple(a - b for a, b in zip(mu, g))
            half = _mod_p(self._half(twisted, rest) @ self._half(twisted, g),
                          p)
        self._halves[twisted][mu] = half
        return half

    def _dense_term(self, plus, minus, delta: int) -> np.ndarray:
        """One summand on the dense route: the coefficient of
        $v^\\delta$ in $A(plus) B(minus)$, for tuples ``plus`` and
        ``minus``."""
        return _coefficient(self._half(True, plus), self._half(False, minus),
                            delta, self.p)


def central_orbit_matrix_v0(module: FinModule, orbit, p: int) -> np.ndarray:
    """Matrix of the central orbit sum at $v = 0$ over $F_p$, acting on
    the reduction of a Laurent module with a length-zero action: the sum
    of the orbit's stack of summands (:meth:`_OrbitActor.orbit_terms`).

    Each summand lies in $[0, p)$ with $p < 2^{63}$; its high and low 32
    bits are summed separately, so neither sum wraps int64 below $2^{31}$
    points, and the two meet mod ``p`` on Python ints."""
    terms = _OrbitActor(module, p).orbit_terms(orbit)
    high, low = np.divmod(terms, 1 << 32)
    total = (high.sum(axis=0).astype(object) << 32) + low.sum(axis=0)
    return (total % p).astype(np.int64)


def _nilpotency_degree(mat: np.ndarray, p: int) -> int | None:
    """Least $k$ with $M^k = 0$ mod $p$, or ``None`` when $M^n \\neq 0$;
    the powers multiply through :class:`LaurentMatrix`'s checked bound."""
    n = mat.shape[0]
    m, cur = LaurentMatrix(0, mat[None], p - 1), LaurentMatrix.identity(n)
    for k in range(1, n + 1):
        cur = _mod_p(cur @ m, p)
        if not cur.coeffs.any():
            return k
    return None


def is_supersingular(module: FinModule, exhaustive: bool = False):
    """Nilpotency of every tested central orbit sum at $v = 0$.

    ``module`` must be a mod-$p$ reduction remembering its Laurent source,
    from which the matrices of central elements are extracted.  Orbits run
    over the dominant monoid generators of the lattice the module sees:
    the weight-compatible sublattice when length-zero elements act, the
    coroot lattice otherwise.  For the two largest exceptional types a
    single documented generator orbit is sampled unless ``exhaustive`` is
    set.

    Returns ``(flag, entries)`` with one entry per tested orbit recording
    the generator, the orbit size and the nilpotency degree (``None``
    when the matrix is not nilpotent).
    """
    assert module.is_modular, "reduce the module mod p first"
    src = module.generic
    if src is None:
        raise ValueError("module reduction lost its Laurent source; "
                         "reduce via FinModule.reduce_mod_p")
    p = module.prime
    alg = module.alg
    datum = alg.datum
    gens = alg.monoid_generators(_level(src.omega_mats))
    key = (datum.kind, datum.rank)
    sampled = False
    if not exhaustive and key in SAMPLED_ORBIT_NODE:
        node = SAMPLED_ORBIT_NODE[key]
        gen = tuple(int(i == node - 1) for i in range(datum.rank))
        if src.omega_mats is None and not datum.in_coroot_lattice(gen):
            # modules without a length-zero action only see coroot
            # translations; the highest coroot always qualifies
            gen = datum.theta_coroot
        gens = (gen,)
        sampled = True
    entries = []
    for gen in gens:
        orbit = datum.weyl_orbit(gen)
        mat = central_orbit_matrix_v0(src, orbit, p)
        deg = _nilpotency_degree(mat, p)
        entries.append({"orbit": list(gen), "orbit_size": len(orbit),
                        "nilpotency_degree": deg,
                        "nilpotent": deg is not None})
    return (all(e["nilpotent"] for e in entries),
            {"sampled": sampled, "orbits": entries})


# ---- the classification search -------------------------------------------


@dataclass
class SearchOutcome:
    """Result of the classification search on one datum."""

    case: str
    dimension: int | None = None
    r: int | None = None
    character: Character | None = None
    module: FinModule | None = None
    certificate: dict = field(default_factory=dict)


def _answer(case: str, module: FinModule, character: Character | None,
            discrete: dict, p: int, exhaustive: bool) -> SearchOutcome:
    """The outcome answering with the Laurent ``module`` and its reduction
    mod ``p``; an answer built from a ``character`` records it and has
    ``r`` equal to its dimension, the reflection answer has no ``r``."""
    fp = module.reduce_mod_p(p)
    flag, detail = is_supersingular(fp, exhaustive=exhaustive)
    orbits = detail["orbits"]
    ss = {
        "orbit": [e["orbit"] for e in orbits],
        "nilpotency_degree": max(e["nilpotency_degree"] or 0 for e in orbits),
        "nilpotent": flag,
        "per_orbit": orbits,
    }
    if detail["sampled"]:
        ss["sampled"] = True
    cert = {"case": case, "dimension": module.dim, "relations": "pass",
            "supersingular_mod_p": ss, "discrete": discrete}
    r = None
    if character is not None:
        cert["character"] = character.to_json()
        r = module.dim
    return SearchOutcome(case=case, dimension=module.dim, r=r,
                         character=character, module=fp, certificate=cert)


def key_result_search(datum, p: int = 5, exhaustive: bool = False) -> SearchOutcome:
    """Locate the discrete simple module with supersingular reduction.

    The datum must carry the full coweight lattice.  The outcome's
    ``case`` names which construction answers, and the certificate
    records the relation check, the discreteness evidence and the
    nilpotency data of the reduction mod ``p``.
    """
    alg = _as_algebra(datum)
    d = alg.datum
    if d.lattice_index != 1:
        raise ValueError("the search needs the full coweight lattice; "
                         f"got a sublattice of index {d.lattice_index}")
    # type A by its affine diagram, whatever the label (D3 is A3): rank one
    # with an infinite bond, or a cycle, every node with two neighbours
    m = d.coxeter_m
    type_a = (m[0][1] == INFINITE_BOND if d.rank == 1
              else all(sum(b not in (1, 2) for b in row) == 2 for row in m))
    if type_a and len(set(d.weights)) == 1:
        return SearchOutcome(
            case=CASE_EXCLUDED_A,
            certificate={"case": CASE_EXCLUDED_A,
                         "note": "type A with equal weights admits no "
                                 "discrete supersingular answer"})

    discrete = []
    for ch in enumerate_characters(alg, "generic"):
        flag, table = is_discrete_character(alg, ch)
        if flag and not ch.is_special():
            discrete.append((ch, table))

    for ch, _ in discrete:
        extends, exts = character_extends(alg, ch)
        if extends:
            ext = exts[0]
            _, ext_table = is_discrete_character(alg, ext)
            return _answer(CASE_ONE_DIM, ext.as_module(alg), ext,
                           {"method": "exponent-table", "table": ext_table},
                           p, exhaustive)

    if discrete:
        ch, table = discrete[0]
        _, twisted = stabilizer_and_twist(alg, ch)
        _, bar_table = is_discrete_character(alg, twisted)
        return _answer(CASE_TWO_DIM, induce_character(alg, ch), ch,
                       {"method": "exponent-table",
                        "table": {"component": table,
                                  "twisted_component": bar_table}},
                       p, exhaustive)

    if d.kind in ("D", "E"):
        return _answer(CASE_REFLECTION, reflection_module(alg).star_twist(),
                       None, {"method": "cited-lusztig", "table": {},
                              "note": "cited, not recomputed"},
                       p, exhaustive)

    return SearchOutcome(
        case=CASE_UNHANDLED,
        certificate={"case": CASE_UNHANDLED,
                     "note": "no construction in the case analysis applies "
                             f"to {d!r}"})
