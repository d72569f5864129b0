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
generators since orbit sums multiply up to lower-order terms.  An orbit
is taken as one stack of points, refused unless every simple reflection
maps it onto itself, and the matrix of its sum at $v = 0$ comes from one
of two routes, chosen from the module's own integer tensors.  On a
monomial module (diagonal $T_s$ and $T^*_s$, length-zero elements acting
by signed permutations, every entry a unit $\\pm v^e$) the coefficients
of the whole orbit are integer arrays read off one stacked Bernstein
split (:meth:`HeckeAlgebra.bernstein_split`): the per-class counts of the
hyperplanes the two translations cross, with no word.  Every other module
takes the dense route, a central character.  The orbit sums span the
center (Bernstein; Lusztig, *Affine Hecke algebras and their graded
version*, JAMS 1989), so on a module whose commutant is the scalars each
acts as a scalar $c(v)$ (Schur).  The certificate, computed once per
module, checks that commutant at one specialization of $v$ mod a prime,
where rank can only drop, and finds an exact common eigenvector of the
$E_g$ of the monoid generators $g$ with eigenvalues $\\pm v^{k_g}$, which
fix a linear form $y$ and a sign character $\\epsilon$ of the lattice.
Then $c(v) = \\sum_{\\lambda \\in \\mathcal{O}} \\epsilon(\\lambda)
v^{L(\\mathcal{O}) + \\langle \\lambda, y \\rangle}$, with $L$ the weighted
translation length: one product of the orbit's stack with $y$, and the
matrix is the constant term of $c(v)$ times the identity.  A module
without the certificate takes the exact action of the central element.
Every route, and the nilpotency test, is exact for every prime
$p < 2^{63}$, the bound of a mod-$p$ module's int64 tensors.

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

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import intlin
from .errors import NotAFullOrbit, SublatticeUnsupported
from .extweyl import translation_letter_counts, translation_word
from .hecke import HeckeAlgebra
from .laurent import Laurent, LaurentMatrix
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

#: The specialization of the certificate: $v$ = ``CERT_V`` in $F_q$ for
#: ``CERT_Q``, the largest prime below $2^{25}$, so that a product of two
#: $n \\times n$ matrices over $F_q$ stays in int64 for every $n < 8192$.
CERT_Q = 33554393
CERT_V = 12345


def _mod_p(mats: LaurentMatrix, p: int) -> LaurentMatrix:
    """Coefficients reduced into ``[0, p)`` on int64, trimmed."""
    return LaurentMatrix(mats.lo, (mats.coeffs % p).astype(np.int64),
                         p - 1).trim()


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


def _per_module(compute):
    """``compute`` memoized per Laurent module, for as long as the module
    lives."""
    memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(compute)
    def once(module: FinModule):
        if module not in memo:
            memo[module] = compute(module)
        return memo[module]

    return once


def _star_mats(module: FinModule) -> LaurentMatrix:
    """The matrices of $T^*_s = T_s - q_s + 1$, stacked over the nodes."""
    return module.smats - module.q_stack() + LaurentMatrix.identity(
        module.dim)


@_per_module
def _monomial_form(module: FinModule):
    """``(T_s, T*_s, length-zero)`` entries of :func:`_monomial_entries`,
    one row per node class for the first two (diagonal) and per
    length-zero element for the last, or ``None`` when the module is not
    of that shape.  The braid relations make diagonal entries equal along
    odd bonds; a module where they differ within a class takes the dense
    route."""
    n = module.dim
    if module.omega_mats is None:
        omega = (np.arange(n)[None], *np.zeros((2, 1, n), np.int64))
    else:
        omega = _monomial_entries(module.omega_mats)
    t = _monomial_entries(module.smats)
    star = _monomial_entries(_star_mats(module))
    datum = module.alg.datum
    first = [cls[0] for cls in datum.classes]
    rep = [first[datum.class_of_node[s]] for s in range(datum.rank + 1)]
    if omega is None or t is None or star is None or any(
            (a != a[rep]).any() for e in (t, star) for a in e) or any(
            (e[0] != np.arange(n)).any() for e in (t, star)):
        return None
    return tuple(a[first] for a in t), tuple(a[first] for a in star), omega


class _OrbitActor:
    """The normalized summands of central orbit sums at $v = 0$ mod ``p``
    on a monomial Laurent module, one orbit at a time as one stack.

    A module whose matrices of $T_s$ and $T^*_s$ are diagonal and whose
    length-zero matrices are monomial, every nonzero entry a unit
    $\\pm v^e$ (characters, their extensions, induced modules), takes the
    *monomial route*.  An orbit is one (N, rank) int64 stack of points.
    One stacked split (:meth:`HeckeAlgebra.bernstein_split`) gives every
    point its dominant parts ``plus`` and ``minus``, the class letter
    counts of $t_{plus}$ and $t_{-minus}$ and the exponent $\\delta$ of the
    normalizing power of $v$.  The summands are then one (N, n, n) stack
    of monomial matrices whose exponents and signs are integer arrays
    over the stack, read off the class counts and the length-zero indices
    of the two translations, with no word.  ``monomial`` is ``None`` on
    any other module, which :func:`central_orbit_matrix_v0` sends to the
    dense route."""

    def __init__(self, module: FinModule, p: int):
        assert not module.is_modular
        self.module = module
        self.p = p
        self.n = module.dim
        self.level = _level(module.omega_mats)
        self.monomial = _monomial_form(module)

    def orbit_terms(self, orbit) -> np.ndarray:
        """The (N, n, n) stack of matrix coefficients of the normalized
        summands at the N points of ``orbit``: at each point ``lam``, the
        coefficient of $v^{\\delta}$ in the product
        $T_{\\omega_1} \\prod T^*_{s} \\cdot T_{\\omega_2} \\prod T_{t}$
        following the dominant/antidominant split of ``lam``.  At each
        point the product $T_{\\omega_1} D_1 T_{\\omega_2} D_2$ sends row
        ``i`` to column ``j`` of $T_{\\omega_1}$, then to column ``k`` of
        $T_{\\omega_2}$; the diagonals $D_1$ of $T^*$ and $D_2$ of $T$ have
        exponents and sign counts linear in the class counts.  The entry
        is kept when its exponent is $\\delta$, with value $1$ or $p - 1$
        by the parity of its signs."""
        assert self.monomial is not None
        plus, minus, c_plus, c_neg, delta = self.module.alg.bernstein_split(
            orbit, self.level)
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


def _specialize(mats: LaurentMatrix) -> np.ndarray:
    """The matrices of ``mats`` at $v$ = ``CERT_V`` over $F_q$, ``CERT_Q``,
    as int64 entries in $[0, q)$."""
    c = mats.coeffs
    out = np.zeros(c.shape[:-3] + c.shape[-2:], dtype=np.int64)
    for k in np.flatnonzero((c != 0).any(axis=(*range(c.ndim - 3), -2, -1))):
        power = pow(CERT_V, mats.lo + int(k), CERT_Q)
        out = (out + (c[..., k, :, :] % CERT_Q).astype(np.int64)
               * power) % CERT_Q
    return out


def _commutant_is_scalar(module: FinModule) -> bool:
    """Whether only the scalars commute with every $\\rho(T_s)$ and
    length-zero matrix of ``module`` at the specialization: the map
    $X \\mapsto (XA - AX)_A$ on $n \\times n$ matrices, one linear system
    in $n^2$ unknowns, has rank $n^2 - 1$ over $F_q$.  A minor of a matrix
    over $\\mathbb{Z}[v^{\\pm 1}]$ that is nonzero at the specialization is
    nonzero, so the rank over $\\mathbb{Q}(v)$ is at least that: the
    commutant over $\\mathbb{Q}(v)$ is the scalars too.  The equations of
    one matrix at a time join an echelon form of those before, which stops
    growing at $n^2 - 1$ rows, the most there can be."""
    n = module.dim
    eye = np.eye(n, dtype=np.int64)
    rows = np.zeros((0, n * n), dtype=np.int64)
    for mats in (module.smats, module.omega_mats):
        for a in [] if mats is None else _specialize(mats):
            # the coefficient of X[k, l] in (XA - AX)[i, j]
            eqs = eye[:, None, :, None] * a.T[None, :, None, :] - (
                a[:, None, :, None] * eye[None, :, None, :])
            rows = intlin.echelon_mod(np.concatenate(
                [rows, eqs.reshape(n * n, n * n) % CERT_Q]), CERT_Q)
            if len(rows) == n * n - 1:
                return True
    return False


def _eigen_column(a: np.ndarray, lo: int, hi: int):
    """``(shift, j)`` naming one eigenvector of the exact matrix whose
    specialization is ``a``: column ``j`` of it minus ``shift``, a pair
    ``(eps, k)`` for $\\epsilon v^k I$, or the unit vector $e_j$ when
    ``shift`` is ``None``; ``None`` when neither form is found.

    With $a_{ij} \\neq 0$ off the diagonal, $R = a - \\mu I$ has rank one
    exactly when $a_{ij} R = R e_j e_i^T R$, one test for all candidates
    $\\mu = \\pm v^k$, $k$ in ``[lo, hi]``, at once; the columns of a rank
    one $R$ span one eigenline.  A diagonal ``a`` names $e_j$ for a
    diagonal entry that occurs once."""
    n = len(a)
    off = np.argwhere(a * (1 - np.eye(n, dtype=np.int64)) != 0)
    if not len(off):
        diag = np.diagonal(a)
        once = np.flatnonzero((diag[:, None] == diag).sum(axis=1) == 1)
        return (None, int(once[0])) if once.size else None
    i, j = off[0]
    powers = [pow(CERT_V, k, CERT_Q) for k in range(lo, hi + 1)]
    mus = np.array(powers + [CERT_Q - x for x in powers], dtype=np.int64)
    r = (a - mus[:, None, None] * np.eye(n, dtype=np.int64)) % CERT_Q
    outer = r[:, :, j, None] * r[:, None, i, :] % CERT_Q
    hit = np.flatnonzero((outer == r * a[i, j] % CERT_Q).all(axis=(1, 2)))
    if not hit.size:
        return None
    c = int(hit[0])
    return ((1 if c < len(powers) else -1), lo + c % len(powers)), int(j)


def _eigenvalue(w: LaurentMatrix, u: LaurentMatrix):
    """``(eps, k)`` with $w = \\epsilon v^k u$ exactly, for column vectors
    ``w`` and ``u`` (shape (degree, n, 1)), else ``None``."""
    i = np.flatnonzero((u.coeffs != 0).any(axis=0)[:, 0])[0]
    ku = np.flatnonzero(u.coeffs[:, i, 0] != 0)[0]
    kw = np.flatnonzero(w.coeffs[:, i, 0] != 0)
    if not kw.size:
        return None
    a, b = int(w.coeffs[kw[0], i, 0]), int(u.coeffs[ku, i, 0])
    if abs(a) != abs(b):
        return None
    eps, k = (1 if a == b else -1), int(w.lo + kw[0] - u.lo - ku)
    if ((w - LaurentMatrix(u.lo + k, eps * u.coeffs)).coeffs != 0).any():
        return None
    return eps, k


def _generator_weights(module: FinModule, gens):
    """Per dominant monoid generator $g$ of ``gens``, ``(eps, k)`` with
    $\\rho(E_g) u = \\epsilon v^k u$ for one exact $u \\neq 0$ over
    $\\mathbb{Z}[v^{\\pm 1}]$, the same for all of them, else ``None``.

    $E_g = T^*_{t_g}$ is the length-zero element of $t_g$ times the
    $T^*_s$ along ``translation_word(g)``, applied exactly to column
    vectors only, so each generator replays its word once.  $u$ is a
    column of $\\rho(E_g) - \\mu$, or a unit vector, for the first
    generator, shortest word first, whose specialization names one
    (:func:`_eigen_column`); $\\mu = \\pm v^k$ with $k$ over the degrees
    the product can reach.  Every generator is then checked exactly on
    $u$."""
    alg, n = module.alg, module.dim
    star = _star_mats(module)
    if module.omega_mats is None:  # a stack of one identity matrix
        omega = LaurentMatrix(0, np.eye(n, dtype=np.int64)[None, None], 1)
        index = [0] * len(gens)
    else:
        omega, index = (module.omega_mats,
                        alg.omega.translation_indices(gens))
    words = [translation_word(alg.datum, g) for g in gens]

    def apply(i, u):
        for s in reversed(words[i]):
            u = (star[s] @ u).trim()
        return (omega[index[i]] @ u).trim()

    s_star, s_omega = _specialize(star), _specialize(omega)
    spread = (star.coeffs.shape[-3] - 1, omega.coeffs.shape[-3] - 1)
    for i in sorted(range(len(gens)), key=lambda i: len(words[i])):
        a = s_omega[index[i]]
        for s in words[i]:
            a = a @ s_star[s] % CERT_Q
        lo = omega.lo + len(words[i]) * star.lo
        found = _eigen_column(
            a, lo, lo + spread[1] + len(words[i]) * spread[0])
        if found is not None:
            shift, j = found
            unit = np.zeros((1, n, 1), dtype=np.int64)
            unit[0, j, 0] = 1
            u = LaurentMatrix(0, unit)
            if shift is not None:
                u = (apply(i, u) - LaurentMatrix(shift[1],
                                                 shift[0] * unit)).trim()
            break
    else:
        return None
    weights = [_eigenvalue(apply(i, u), u) for i in range(len(gens))]
    return None if None in weights else weights


class _CentralCharacter:
    """The certified central character of a Laurent module, shared by all
    of its orbits (:func:`_certificate`).

    The module's commutant is the scalars, so every central element acts
    as a scalar (Schur), and the central orbit sums $z_\\mathcal{O}$ span
    the center (Bernstein; Lusztig, *Affine Hecke algebras and their
    graded version*, JAMS 1989).  $\\theta_\\lambda = v^{-L(\\lambda)}
    E_\\lambda$ is multiplicative, with $L$ the weighted translation length,
    constant on a Weyl orbit; on the common eigenvector $u$ it acts as
    $\\epsilon(\\lambda) v^{\\langle \\lambda, y \\rangle}$ for a sign
    character $\\epsilon$ and a linear form $y$ of the lattice.  So
    $z_\\mathcal{O}$ acts as
    $c(v) = \\sum_{\\lambda \\in \\mathcal{O}} \\epsilon(\\lambda)
    v^{L(\\mathcal{O}) + \\langle \\lambda, y \\rangle}$.

    ``pairing`` is a (rank, 2) int64 matrix and ``det`` an int such that
    ``pts @ pairing / det`` holds $\\langle \\lambda, y \\rangle$ and an
    exponent of $-1$ giving $\\epsilon(\\lambda)$ for each lattice point
    $\\lambda$."""

    def __init__(self, datum, pairing: np.ndarray, det: int):
        self.datum = datum
        self.pairing = pairing
        self.det = det

    def scalar(self, pts: np.ndarray) -> Laurent:
        """$c(v)$ on the Weyl orbit ``pts``, an (N, rank) int64 stack: one
        (N, rank) product and two counts."""
        vals = pts @ self.pairing
        assert not (vals % self.det).any()
        vals //= self.det
        exps = vals[:, 0] + self.datum.translation_weighted_length(pts[0])
        odd = vals[:, 1] % 2 == 1
        lo = int(exps.min())
        size = int(exps.max()) - lo + 1
        counts = (np.bincount(exps[~odd] - lo, minlength=size)
                  - np.bincount(exps[odd] - lo, minlength=size))
        return Laurent({lo + k: c for k, c in enumerate(counts.tolist())})


@_per_module
def _certificate(module: FinModule) -> _CentralCharacter | None:
    """The central character of ``module`` (:class:`_CentralCharacter`),
    computed once per module, or ``None`` when its commutant is not
    certified to be the scalars (:func:`_commutant_is_scalar`) or no
    common eigenvector is found (:func:`_generator_weights`).  The
    exponents $k_g$ of the generators give
    $\\langle g, y \\rangle = k_g - L(g)$ and the signs give $\\epsilon$,
    both in the coordinates of the lattice basis: the generators span the
    lattice, so each system has one solution over $F_q$ and over $F_2$,
    and $\\theta$ being multiplicative makes both consistent.  $y$ is
    integral, so its lift from $F_q$ to $(-q/2, q/2)$ is checked to solve
    the system over the integers."""
    if not _commutant_is_scalar(module):
        return None
    alg, datum = module.alg, module.alg.datum
    level = _level(module.omega_mats)
    gens = alg.monoid_generators(level)
    weights = _generator_weights(module, gens)
    if weights is None:
        return None
    inv = intlin.frac_inverse(alg._level_basis(level))
    det = intlin.det(alg._level_basis(level))
    coords = np.array([[int(sum(x * row[j] for x, row in zip(g, inv)))
                        for j in range(datum.rank)] for g in gens],
                      dtype=np.int64)
    rhs = np.array([k - datum.translation_weighted_length(g)
                    for g, (_, k) in zip(gens, weights)], dtype=np.int64)
    y = intlin.solve_mod(coords, rhs, CERT_Q)
    signs = intlin.solve_mod(coords, [int(eps < 0) for eps, _ in weights], 2)
    assert y is not None and signs is not None
    y = np.where(y > CERT_Q // 2, y - CERT_Q, y)
    assert (coords @ y == rhs).all()
    adj = np.array([[int(x * det) for x in row] for row in inv],
                   dtype=np.int64)
    pairing = adj @ np.stack([y, signs], axis=1)
    return _CentralCharacter(datum, pairing, det)


def central_orbit_matrix_v0(module: FinModule, orbit, p: int) -> np.ndarray:
    """Matrix of the central orbit sum at $v = 0$ over $F_p$, acting on
    the reduction of a Laurent module with a length-zero action.

    ``orbit`` must be one full Weyl orbit of points of the lattice the
    module sees: ``ValueError`` for points of the wrong length,
    ``NotInLattice`` off the lattice and ``NotAFullOrbit`` when a simple
    reflection does not map the stack onto itself
    (:meth:`RootDatum.is_weyl_orbit`).  A monomial module sums the orbit's
    stack of summands (:meth:`_OrbitActor.orbit_terms`); each lies in
    $[0, p)$ with $p < 2^{63}$, and its high and low 32 bits are summed
    separately, so neither sum wraps int64 below $2^{31}$ points.  Every
    other module takes the dense route: with a certificate
    (:func:`_certificate`) the sum acts as $c(v) I$ and the matrix is
    $c_0 I$ mod ``p``, for $c_0$ the constant term of $c(v)$; without one
    it is the $v^0$ coefficient of the exact action
    (:meth:`FinModule.act` on :meth:`HeckeAlgebra.central_from_orbit`).
    That route multiplies Hecke elements whose supports grow exponentially
    with the orbit's translations, so a module without the certificate
    can take minutes on one generator orbit: on a C5 module of the induced
    answer's shape, one orbit did not finish in 150 s."""
    alg = module.alg
    if not len(orbit):
        raise NotAFullOrbit("empty orbit")
    pts = alg._stack(orbit)
    if not alg.datum.is_weyl_orbit(pts):
        raise NotAFullOrbit(f"the {len(pts)} given points do not form one "
                            "full Weyl orbit")
    actor = _OrbitActor(module, p)
    if actor.monomial is not None:  # its split checks the lattice
        terms = actor.orbit_terms(pts)
        high, low = np.divmod(terms, 1 << 32)
        total = (high.sum(axis=0).astype(object) << 32) + low.sum(axis=0)
        return (total % p).astype(np.int64)
    alg.lattice_points(pts, actor.level)
    cert = _certificate(module)
    if cert is not None:
        c0 = cert.scalar(pts).constant_term()
        return np.eye(module.dim, dtype=np.int64) * (c0 % p)
    exact = module.act(alg.central_from_orbit(pts))
    k = -exact.lo
    coeff = (exact.coeffs[k] if 0 <= k < len(exact.coeffs)
             else np.zeros((module.dim,) * 2, dtype=np.int64))
    return (coeff % p).astype(np.int64)


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
        raise SublatticeUnsupported(
            "the search needs the full coweight lattice; "
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
