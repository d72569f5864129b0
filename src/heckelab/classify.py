"""Discreteness, supersingularity and the classification search.

A one dimensional character is *discrete* when a weighted letter count is
strictly negative on every generator of the monoid of dominant lattice
points: for a generator $\\mu$ take any reduced word of the translation
by $\\mu$ and add $+d(s)$ for every letter whose generator acts by
$q^{d(s)}$ and $-d(s)$ for every letter acting by $-1$.  The count does
not depend on the chosen reduced word because the letter classes of a
reduced word are determined by the element, and it is read off the
per-class counts of the hyperplanes the translation crosses, with no
word.  Characters of the
non-extended algebra are tested over the coroot lattice, extended
characters over the sublattice compatible with the node weights.

A finite dimensional module over the reduction at $v = 0$ in
characteristic $p$ is *supersingular* when every central orbit sum acts
nilpotently; it suffices to check the orbits of the dominant monoid
generators since orbit sums multiply up to lower-order terms.  An orbit
is taken as one stack of points, refused unless every simple reflection
maps it onto itself.  The orbit sums span the center (Bernstein;
Lusztig, *Affine Hecke algebras and their graded version*, JAMS 1989),
so on a module whose commutant is the scalars each acts as a scalar
$c(v)$ (Schur).  The certificate, computed once per module, checks that
commutant at one specialization of $v$ mod a prime $q \\equiv 1 \\pmod 4$,
where rank can only drop, and finds an exact common eigenvector of the
$E_g$ of the monoid generators $g$ with eigenvalues $i^{t_g} v^{k_g}$,
which fix a linear form $y$ and a character $a$ of the lattice into
$\\mathbb{Z}/4$.  A $1 \\times 1$ module reads its eigenvalues off its own
values and the per-class letter counts of the generators' translation
words, with no word; a larger one multiplies each generator's word in
chunks and steps one exact vector through them.  Then $c(v) = \\sum_{\\lambda \\in \\mathcal{O}}
i^{a(\\lambda)} v^{L(\\mathcal{O}) + \\langle \\lambda, y \\rangle}$, with
$L$ the weighted translation length: one product of the orbit's lattice
coordinates with $(y, a)$, and the matrix is the constant term of $c(v)$
times the identity.  A module without the certificate takes the exact
action of the central element.  Both, and the nilpotency test, are exact
for every prime $p < 2^{63}$, the bound of a mod-$p$ module's int64
tensors.

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
from .errors import SublatticeUnsupported
from .extweyl import translation_word
from .hecke import HeckeAlgebra
from .laurent import Laurent, LaurentMatrix, mod_p
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
    return int(_signed_exponents(algebra, char, [lam])[0])


def _signed_exponents(algebra: HeckeAlgebra, char: Character, pts):
    """Per point of ``pts``, the letter count of each node class in a
    reduced word of its translation
    (:meth:`RootDatum.translation_class_counts`) times the class weight,
    signed by ``char`` on the class, summed over the classes."""
    datum = algebra.datum
    signed = [char.sign_on_class(k) * d
              for k, d in enumerate(datum.class_weights)]
    return datum.translation_class_counts(np.array(pts, dtype=np.int64)) @ (
        np.array(signed, dtype=np.int64))


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
    gens = alg.monoid_generators(level)
    rows = [{"generator": list(gen), "exponent": k} for gen, k in zip(
        gens, _signed_exponents(alg, char, gens).tolist())]
    return (all(row["exponent"] < 0 for row in rows),
            {"level": level, "rows": rows})


# ---- central action at v = 0 in characteristic p -------------------------

#: The specialization of the certificate: $v$ = ``CERT_V`` in $F_q$ for
#: ``CERT_Q``, the largest prime below $2^{25}$, so that a product of two
#: $n \\times n$ matrices over $F_q$ stays in int64 for every $n < 8192$.
#: As $q \\equiv 1 \\pmod 4$, $F_q$ holds ``CERT_I``, a square root of
#: $-1$, so every candidate eigenvalue $i^t v^k$ has a value there.
CERT_Q = 33554393
CERT_V = 12345
CERT_I = 75304
assert CERT_Q % 4 == 1 and CERT_I * CERT_I % CERT_Q == CERT_Q - 1


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


def _specialize(mats: LaurentMatrix) -> np.ndarray:
    """The matrices of ``mats`` at $v$ = ``CERT_V`` over $F_q$, ``CERT_Q``,
    as int64 entries in $[0, q)$."""
    c = mats.coeffs
    powers = np.array([pow(CERT_V, int(mats.lo) + k, CERT_Q)
                       for k in range(c.shape[-3])], dtype=np.int64)
    terms = (c % CERT_Q).astype(np.int64) * powers[:, None, None] % CERT_Q
    return terms.sum(axis=-3) % CERT_Q


def _commutant_is_scalar(module: FinModule) -> bool:
    """Whether only the scalars commute with every $\\rho(T_s)$ and
    length-zero matrix of ``module`` at the specialization: the map
    $X \\mapsto (XA - AX)_A$ on $n \\times n$ matrices, one linear system
    in $n^2$ unknowns, has rank $n^2 - 1$ over $F_q$.  A minor of a matrix
    over $\\mathbb{Z}[v^{\\pm 1}]$ that is nonzero at the specialization is
    nonzero, so the rank over $\\mathbb{Q}(v)$ is at least that: the
    commutant over $\\mathbb{Q}(v)$ is the scalars too."""
    n = module.dim
    if n == 1:
        return True
    a = np.concatenate([_specialize(mats) for mats in (
        module.smats, module.omega_mats) if mats is not None])
    eye = np.eye(n, dtype=np.int64)
    # the coefficient of X[k, l] in (XA - AX)[i, j], per matrix A
    eqs = np.einsum("ik,alj->aijkl", eye, a) - np.einsum("aik,lj->aijkl",
                                                         a, eye)
    rows = intlin.echelon_mod(eqs.reshape(-1, n * n) % CERT_Q, CERT_Q)
    return len(rows) == n * n - 1


def _eigen_column(a: np.ndarray, lo: int, hi: int):
    """``(shift, j)`` naming one eigenvector of the exact matrix whose
    specialization is ``a``: column ``j`` of it minus ``shift``, a pair
    ``(t, k)`` for $i^t v^k I$, or the unit vector $e_j$ when ``shift`` is
    ``None``; ``None`` when neither form is found.

    With $a_{ij} \\neq 0$ off the diagonal, $R = a - \\mu I$ has rank one
    exactly when $a_{ij} R = R e_j e_i^T R$, one test for all candidates
    $\\mu = i^t v^k$, $t = 0..3$ and $k$ in ``[lo, hi]``, at once; the
    columns of a rank one $R$ span one eigenline.  A diagonal ``a`` names
    $e_j$ for a diagonal entry that occurs once."""
    n = len(a)
    off = np.argwhere(a * (1 - np.eye(n, dtype=np.int64)) != 0)
    if not len(off):
        diag = np.diagonal(a)
        once = np.flatnonzero((diag[:, None] == diag).sum(axis=1) == 1)
        return (None, int(once[0])) if once.size else None
    i, j = off[0]
    powers = np.array([pow(CERT_V, k, CERT_Q) for k in range(lo, hi + 1)],
                      dtype=np.int64)
    turns = np.array([pow(CERT_I, t, CERT_Q) for t in range(4)],
                     dtype=np.int64)
    mus = (turns[:, None] * powers % CERT_Q).ravel()
    r = (a - mus[:, None, None] * np.eye(n, dtype=np.int64)) % CERT_Q
    outer = r[:, :, j, None] * r[:, None, i, :] % CERT_Q
    hit = np.flatnonzero((outer == r * a[i, j] % CERT_Q).all(axis=(1, 2)))
    if not hit.size:
        return None
    t, k = divmod(int(hit[0]), len(powers))
    return (t, lo + k), int(j)


def _turn(u: LaurentMatrix, t: int) -> LaurentMatrix:
    """$i^t u$ for ``u`` over $\\mathbb{Z}[i][v^{\\pm 1}]$, held as the
    stack (re, im) of its real and imaginary parts."""
    c = u.coeffs
    for _ in range(t % 4):
        c = np.stack([-c[1], c[0]])
    return LaurentMatrix(u.lo, c)


def _eigenvalues(ws, u: LaurentMatrix):
    """Per column vector $w$ of ``ws``, ``(t, k)`` with $w = i^t v^k u$
    exactly, else ``None``, for vectors over $\\mathbb{Z}[i][v^{\\pm 1}]$
    held as stacks (re, im) of shape (2, degree, n, 1), $u \\neq 0$.
    Multiplying by $i^t$ keeps the degrees where a vector is nonzero, so
    once both are trimmed $k$ is the gap between their lowest degrees and
    the coefficients of $w$ are those of $i^t u$."""
    u = u.trim()
    turns = [_turn(u, t).coeffs for t in range(4)]
    out = []
    for w in ws:
        w = w.trim()
        t = next((t for t, c in enumerate(turns)
                  if c.shape == w.coeffs.shape and (c == w.coeffs).all()),
                 None)
        out.append(None if t is None else (t, int(w.lo - u.lo)))
    return out


#: Neighbouring chunks of a word are multiplied into one while the chunks
#: span at most this many degrees.  Longer chunks cost more as matrix
#: products than they save as steps on vectors: the certificate of E8's
#: reflection module took 1.6 s with no bound and 36 ms with this one.
CHUNK_DEGREES = 16


def _word_chunks(module: FinModule, gens):
    """``(table, chunks)``: the exact matrices of
    $E_g = T^*_{t_g}$ for the dominant monoid generators $g$ of ``gens``,
    each the product of the matrices ``table[c]`` for $c$ in ``chunks[g]``.

    $E_g$ is the length-zero element of $t_g$ times the $T^*_s$ along
    ``translation_word(g)``.  Starting from those letters, neighbouring
    chunks of every word are multiplied in pairs, each distinct pair once
    in one stacked product per level (a word of odd length takes the
    identity last), while the table spans at most ``CHUNK_DEGREES``
    degrees: short words end as one matrix each, long ones as chunks that
    vectors step through."""
    alg, n = module.alg, module.dim
    one = LaurentMatrix.identity(n)[None]
    star = _star_mats(module)
    if module.omega_mats is None:
        omega, index = one, [0] * len(gens)
    else:
        omega, index = (module.omega_mats,
                        alg.omega.translation_indices(gens))
    table = LaurentMatrix.concat([omega, star, one])
    chunks = [[i] + [len(omega) + s for s in translation_word(alg.datum, g)]
              for i, g in zip(index, gens)]
    while (max(map(len, chunks)) > 1
           and table.coeffs.shape[-3] <= CHUNK_DEGREES):
        chunks = [c + [len(table) - 1] * (len(c) % 2) for c in chunks]
        pairs = sorted({p for c in chunks for p in zip(c[0::2], c[1::2])})
        left, right = (list(x) for x in zip(*pairs))
        table = LaurentMatrix.concat([(table[left] @ table[right]).trim(),
                                      one])
        number = {p: k for k, p in enumerate(pairs)}
        chunks = [[number[p] for p in zip(c[0::2], c[1::2])] for c in chunks]
    return table, chunks


def _replayed_weights(module: FinModule, gens):
    """Per dominant monoid generator $g$ of ``gens``, ``(t, k)`` with
    $\\rho(E_g) u = i^t v^k u$ for one exact $u \\neq 0$ over
    $\\mathbb{Z}[i][v^{\\pm 1}]$, the same for all of them, else ``None``.

    $\\rho(E_g)$ is applied exactly to column vectors only, a chunk of its
    word at a time (:func:`_word_chunks`).  $u$ is a column of
    $\\rho(E_g) - \\mu$, or a unit vector, for the first generator whose
    specialization names one (:func:`_eigen_column`); $\\mu = i^t v^k$ with
    $k$ over the degrees the product can reach.  Every generator is then
    checked exactly on $u$ (:func:`_eigenvalues`)."""
    table, chunks = _word_chunks(module, gens)
    spec, spread = _specialize(table), table.coeffs.shape[-3] - 1

    def apply(g, u):
        for c in reversed(chunks[g]):
            u = (table[c] @ u).trim()
        return u

    for g, word in enumerate(chunks):
        a = spec[word[0]]
        for c in word[1:]:
            a = a @ spec[c] % CERT_Q
        lo = len(word) * int(table.lo)
        found = _eigen_column(a, lo, lo + len(word) * spread)
        if found is not None:
            break
    else:
        return None
    shift, j = found
    unit = np.zeros((2, 1, module.dim, 1), dtype=np.int64)
    unit[0, 0, j, 0] = 1
    u = LaurentMatrix(0, unit)
    if shift is not None:
        t, k = shift
        u = apply(g, u) - _turn(LaurentMatrix(k, unit), t)
    weights = _eigenvalues([apply(g, u) for g in range(len(gens))], u)
    return None if None in weights else weights


def _units(mats: LaurentMatrix):
    """For a stack of $1 \\times 1$ matrices, each a unit $\\pm v^e$: the
    arrays of $t$ with $\\pm 1 = i^t$ and of $e$; else ``None``."""
    c = mats.coeffs[..., 0, 0]
    deg = (c != 0).argmax(axis=-1)
    unit = c[np.arange(len(c)), deg]
    if ((c != 0).sum(axis=-1) != 1).any() or (np.abs(unit) != 1).any():
        return None
    return 2 * (unit < 0), mats.lo + deg


def _class_count_weights(module: FinModule, gens, counts):
    """The weights of :func:`_replayed_weights` on a $1 \\times 1$ module,
    with no word: $\\rho(E_g)$ is the value of the length-zero element of
    $t_g$ times the value of $T^*_s$ on each node class to the power of
    that class's letter count in $g$'s translation word, ``counts``
    (:meth:`RootDatum.translation_class_counts` of ``gens``).  ``None``
    on a larger module, or unless every value is a unit $\\pm v^e$ and the
    values of $T^*_s$ are constant on each node class."""
    alg, datum = module.alg, module.alg.datum
    if module.dim != 1:
        return None
    star = _units(_star_mats(module))
    first = [cls[0] for cls in datum.classes]
    rep = [first[datum.class_of_node[s]] for s in range(datum.rank + 1)]
    if star is None or any((x != x[rep]).any() for x in star):
        return None
    turns, ks = (counts @ x[first] for x in star)
    if module.omega_mats is not None:
        omega = _units(module.omega_mats)
        if omega is None:
            return None
        index = alg.omega.translation_indices(gens)
        turns, ks = turns + omega[0][index], ks + omega[1][index]
    return list(zip((turns % 4).tolist(), ks.tolist()))


class _CentralCharacter:
    """The certified central character of a Laurent module, shared by all
    of its orbits (:func:`_certificate`).

    The module's commutant is the scalars, so every central element acts
    as a scalar (Schur), and the central orbit sums $z_\\mathcal{O}$ span
    the center (Bernstein; Lusztig, *Affine Hecke algebras and their
    graded version*, JAMS 1989).  $\\theta_\\lambda = v^{-L(\\lambda)}
    E_\\lambda$ is multiplicative, with $L$ the weighted translation length,
    constant on a Weyl orbit; on the common eigenvector $u$ it acts as
    $i^{a(\\lambda)} v^{\\langle \\lambda, y \\rangle}$ for a character
    $a$ of the lattice into $\\mathbb{Z}/4$ and a linear form $y$.  So
    $z_\\mathcal{O}$ acts as
    $c(v) = \\sum_{\\lambda \\in \\mathcal{O}} i^{a(\\lambda)}
    v^{L(\\mathcal{O}) + \\langle \\lambda, y \\rangle}$.

    ``pairing`` is a (rank, 2) int64 matrix: the coordinates of a point
    $\\lambda$ of the lattice at ``level`` of ``alg`` times ``pairing``
    hold $\\langle \\lambda, y \\rangle$ and $a(\\lambda)$."""

    def __init__(self, alg: HeckeAlgebra, level: str, pairing: np.ndarray):
        self.alg = alg
        self.level = level
        self.pairing = pairing

    def scalar(self, pts: np.ndarray) -> Laurent:
        """$c(v)$ on the Weyl orbit ``pts``, an (N, rank) int64 stack: its
        lattice coordinates (``NotInLattice`` off the lattice) times
        ``pairing`` and a count of the exponents per $a \\bmod 4$, over
        the exponents that occur only (at a large weight they spread over
        millions of degrees).  The imaginary part, $a \\equiv 1$ minus
        $a \\equiv 3$, is zero."""
        vals = self.alg.lattice_coordinates(pts, self.level) @ self.pairing
        exps, at = np.unique(vals[:, 0], return_inverse=True)
        counts = [np.bincount(at[vals[:, 1] % 4 == t], minlength=len(exps))
                  for t in range(4)]
        assert (counts[1] == counts[3]).all()
        shift = self.alg.datum.translation_weighted_length(pts[0])
        real = counts[0] - counts[2]
        return Laurent(dict(zip((exps + shift).tolist(), real.tolist())))


@_per_module
def _certificate(module: FinModule) -> _CentralCharacter | None:
    """The central character of ``module`` (:class:`_CentralCharacter`),
    computed once per module, or ``None`` when its commutant is not
    certified to be the scalars (:func:`_commutant_is_scalar`) or no
    common eigenvector is found (:func:`_class_count_weights` on a
    $1 \\times 1$ module where it applies, :func:`_replayed_weights`
    otherwise).  The weights $i^{t_g} v^{k_g}$ of the generators give
    $\\langle g, y \\rangle = k_g - L(g)$ and $a(g) \\equiv t_g \\pmod 4$,
    both linear in the coordinates of $g$ in the lattice basis
    (:meth:`HeckeAlgebra.lattice_coordinates`).  The generators span the
    lattice, so each system has one solution over $F_q$ and over $F_2$,
    and $\\theta$ being multiplicative makes them consistent.  The lift of
    $y$ from $F_q$ to $(-q/2, q/2)$ is checked over the integers; $a$ is
    lifted 2-adically from two solutions over $F_2$ and checked mod 4."""
    if not _commutant_is_scalar(module):
        return None
    alg, datum = module.alg, module.alg.datum
    level = _level(module.omega_mats)
    gens = alg.monoid_generators(level)
    counts = datum.translation_class_counts(np.array(gens, dtype=np.int64))
    weights = (_class_count_weights(module, gens, counts)
               or _replayed_weights(module, gens))
    if weights is None:
        return None
    turns, ks = np.array(weights, dtype=np.int64).T
    coords = alg.lattice_coordinates(gens, level)
    rhs = ks - counts @ np.array(datum.class_weights, dtype=np.int64)
    y = intlin.solve_mod(coords, rhs, CERT_Q)
    low = intlin.solve_mod(coords, turns, 2)
    assert y is not None and low is not None
    high = intlin.solve_mod(coords, (turns - coords @ low) // 2, 2)
    assert high is not None
    y = np.where(y > CERT_Q // 2, y - CERT_Q, y)
    a = low + 2 * high
    assert (coords @ y == rhs).all() and not ((coords @ a - turns) % 4).any()
    return _CentralCharacter(alg, level, np.stack([y, a], axis=1))


def central_orbit_matrix_v0(module: FinModule, orbit, p: int) -> np.ndarray:
    """Matrix of the central orbit sum at $v = 0$ over $F_p$, acting on
    the reduction of a Laurent module with a length-zero action.

    ``orbit`` must be one full Weyl orbit of points of the lattice the
    module sees: ``NotInLattice`` off the lattice, else ``ValueError``,
    ``TypeError`` or ``NotAFullOrbit`` from :meth:`RootDatum.orbit_stack`.
    With a certificate (:func:`_certificate`) the sum acts as $c(v) I$ and
    the matrix is $c_0 I$ mod ``p``, for $c_0$ the constant term of
    $c(v)$: exact for every prime $p < 2^{63}$.  A module without one
    takes the $v^0$ coefficient of the exact action (:meth:`FinModule.act`
    on :meth:`HeckeAlgebra.central_from_orbit`).  That route multiplies
    Hecke elements whose supports grow exponentially with the orbit's
    translations: an 80-point C5 orbit sum (143,701 terms) takes 1 min."""
    assert not module.is_modular
    alg = module.alg
    pts = alg.datum.orbit_stack(orbit)
    cert = _certificate(module)
    if cert is not None:
        c0 = cert.scalar(pts).constant_term()
        return np.eye(module.dim, dtype=np.int64) * (c0 % p)
    alg.lattice_coordinates(pts, _level(module.omega_mats))
    exact = module.act(alg.central_from_orbit(pts))
    k = -exact.lo
    coeff = (exact.coeffs[k] if 0 <= k < len(exact.coeffs)
             else np.zeros((module.dim,) * 2, dtype=np.int64))
    return (coeff % p).astype(np.int64)


def _nilpotency_degree(mat: np.ndarray, p: int) -> int | None:
    """Least $k$ with $M^k = 0$ mod $p$, or ``None`` when $M^n \\neq 0$;
    the powers are taken on :func:`mod_p`'s exact dtype."""
    m = cur = mod_p(mat, p)
    for k in range(1, mat.shape[0] + 1):
        if not cur.any():
            return k
        cur = cur @ m % p
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
