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
power of $v$ is needed.  On a monomial module (diagonal $T_s$ and
$T^*_s$, length-zero elements acting by signed permutations, every entry
a single term $c v^e$) that coefficient is read off the letter counts of
the two translation words in exact integer arithmetic; every other
module goes through a truncated polynomial product of float64 degree
slices, the only use of floating point in the package.

The search routine walks the case analysis: a discrete non-special
character that extends (one dimensional answer), discrete characters
none of which extend (two dimensional induced answer), only the special
character discrete on a simply laced diagram (twisted reflection module),
and type $A$ with equal weights (excluded: no supersingular discrete
answer exists there).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .extweyl import translation_word
from .hecke import HeckeAlgebra
from .laurent import LaurentMatrix
from .modules import (Character, FinModule, character_extends,
                      enumerate_characters, induce_character,
                      reflection_module, stabilizer_and_twist, _as_algebra)
from .rootdata import dominant_monoid_generators

CASE_ONE_DIM = "Character1Dim"
CASE_TWO_DIM = "Induced2Dim"
CASE_REFLECTION = "ReflectionTwist"
CASE_EXCLUDED_A = "ExcludedTypeA"
CASE_UNHANDLED = "UnhandledCase"

#: Fundamental coweight sampled by default for the two biggest types,
#: where running every generator orbit is slow: the orbit of the node-7
#: coweight (the smallest orbit, 56 points) and of the node-8 coweight
#: (the coroot of the highest root, 240 points).
SAMPLED_ORBIT_NODE = {("E", 7): 7, ("E", 8): 8}


def discreteness_level(char: Character) -> str:
    """``"coroot"`` for plain characters, ``"effective"`` for extended."""
    return "coroot" if char.omega_signs is None else "effective"


def _monoid_generators(algebra: HeckeAlgebra, level: str):
    if level == "coroot":
        return dominant_monoid_generators(algebra.datum, "coroot")
    if level == "effective":
        return dominant_monoid_generators(algebra.datum,
                                          algebra.effective_basis)
    raise ValueError(f"unknown level {level!r}")


def translation_exponent(algebra: HeckeAlgebra, char: Character,
                         lam) -> int:
    """The signed weighted letter count of the translation by ``lam``."""
    total = 0
    for s in translation_word(algebra.datum, lam):
        d = algebra.datum.weights[s]
        total += d if char.sign_on_node(s) == 1 else -d
    return total


def is_discrete_character(algebra, char: Character,
                          level: str | None = None):
    """Strict negativity of the exponent on every dominant generator.

    Returns ``(flag, table)`` where the table lists each generator with
    its exponent; the flag is true exactly when all exponents are
    negative.
    """
    alg = _as_algebra(algebra)
    assert char.mode == "generic"
    level = level or discreteness_level(char)
    rows = []
    flag = True
    for gen in _monoid_generators(alg, level):
        k = translation_exponent(alg, char, gen)
        rows.append({"generator": list(gen), "exponent": k})
        if k >= 0:
            flag = False
    return flag, {"level": level, "rows": rows}


# ---- central action at v = 0 in characteristic p -------------------------


def _degree_slices(mats: LaurentMatrix, p: int):
    """Per stacked matrix of a polynomial tensor, its nonzero degree
    slices mod ``p`` as ``(degree, coefficient matrix)`` pairs.  The
    arrays are float64 so that products run through BLAS.  Every entry is
    a nonnegative integer below ``p``, so an accumulator of
    :func:`_truncated_apply` is a nonnegative integer below $k n p^2$ for
    $k$ degree slices of an $n \\times n$ matrix.  The guard
    $p \\le 10^6$ of :class:`_OrbitActor` keeps that, and with it
    $x + p$, below $2^{53}$ whenever $k n < 9000$ (it is in the tens for
    the modules here), so float64 sums, products and the floor reduction
    are exact."""
    mats = mats.trim()
    assert mats.lo >= 0, "entries must be polynomial in v"
    coeffs = mats.coeffs % p
    live = coeffs.any(axis=(-2, -1)).tolist()
    return [[(mats.lo + k, c) for k, c in enumerate(slices) if on[k]]
            for slices, on in zip(coeffs.astype(np.float64), live)]


def _truncated_apply(cur: np.ndarray, gen_slices, p: int) -> np.ndarray:
    """Multiply a truncated polynomial matrix (layout ``(cap, n, n)``,
    slice ``e`` holding the coefficient of $v^e$) by a generator matrix
    given as degree slices, dropping coefficients at or above the cap.

    The stacked slices are multiplied as one ``(cap * n, n)`` matrix, and
    the result is reduced mod ``p`` as $x - p \\lfloor x / p \\rfloor$,
    which is exact for nonnegative integers $x$ with $x + p \\le 2^{53}$
    (the quotient cannot round up to the next integer) and much faster
    than ``np.remainder`` on floats.  Inputs reduced mod ``p`` and the
    $p \\le 10^6$ guard of :class:`_OrbitActor` keep every
    accumulator in that range."""
    cap, n, _ = cur.shape
    flat = cur.reshape(cap * n, n)
    out = np.zeros_like(cur)
    flat_out = out.reshape(cap * n, n)
    for f, g in gen_slices:
        if f >= cap:
            break
        flat_out[f * n:] += flat[:(cap - f) * n] @ g
    out -= p * np.floor(out / p)
    return out


def _monomial_entries(mats: LaurentMatrix):
    """For a stack of monomial matrices, each row and each column holding
    exactly one nonzero entry and that entry a single term $c v^e$: per
    matrix, the lists (column, $c$, $e$) indexed by row.  ``None`` for
    any other stack."""
    nz = mats.coeffs != 0
    terms = nz.sum(axis=-3)
    if (terms > 1).any() or (terms.sum(axis=-1) != 1).any() or (
            terms.sum(axis=-2) != 1).any():
        return None
    cols = terms.argmax(axis=-1)
    k, rows = np.indices(cols.shape)
    degs = nz[k, :, rows, cols].argmax(axis=-1)
    coefs = mats.coeffs[k, degs, rows, cols]
    return [(c, a, [mats.lo + d for d in e]) for c, a, e in
            zip(cols.tolist(), coefs.tolist(), degs.tolist())]


class _OrbitActor:
    """The normalized summands of one central orbit sum at $v = 0$ mod
    ``p`` on a Laurent module.

    A module whose matrices of $T_s$ and $T^*_s$ are diagonal and whose
    length-zero matrices are monomial, every nonzero entry a single term
    $c v^e$ (characters, their extensions, induced modules), takes the
    *monomial route*: a summand is then a monomial matrix whose entries
    follow from the letter counts of its two words, in exact integer
    arithmetic.  Any other module takes the *dense route*, truncated
    products of float64 degree slices (:func:`_truncated_apply`), built
    on first use.  Translation words are kept per coweight: the dominant
    and antidominant parts repeat across the points of an orbit."""

    def __init__(self, module: FinModule, p: int):
        assert not module.is_modular
        # secures the exactness bound of _degree_slices
        if p > 1_000_000:
            raise ValueError("primes beyond 10^6 would overflow the "
                             "float64 product accumulators")
        self.module = module
        self.p = p
        self.n = module.dim
        self.star = (module.smats - module.q_stack()
                     + LaurentMatrix.identity(self.n))  # T*_s = T_s - q_s + 1
        self._words: dict = {}
        self.monomial = self._monomial_form()

    def _monomial_form(self):
        """``(T_s, T*_s, length-zero)`` monomial entries, the first two
        diagonal, or ``None`` when the module is not of that shape."""
        mod, diag = self.module, list(range(self.n))
        if mod.omega_mats is None:
            omega = [(diag, [1] * self.n, [0] * self.n)]
        else:
            omega = _monomial_entries(mod.omega_mats)
        t = _monomial_entries(mod.smats)
        star = _monomial_entries(self.star)
        if omega is None or t is None or star is None or any(
                cols != diag for cols, _, _ in t + star):
            return None
        return t, star, omega

    @functools.cached_property
    def _slices(self):
        mod = self.module
        omega = (None if mod.omega_mats is None
                 else _degree_slices(mod.omega_mats, self.p))
        return (_degree_slices(mod.smats, self.p),
                _degree_slices(self.star, self.p), omega)

    def _word(self, lam) -> tuple[int, ...]:
        word = self._words.get(lam)
        if word is None:
            word = self._words[lam] = translation_word(
                self.module.alg.datum, lam)
        return word

    def _coroot_decomposition(self, lam):
        """Dominant decomposition whose two parts both translate without
        a length-zero factor, for modules that carry none."""
        alg = self.module.alg
        om = alg.omega
        plus, minus = alg.dominant_decomposition(lam)
        idx = om.index_of(om.element_for_translation(plus))
        if idx != 0:
            order, acc = 1, idx
            while acc != 0:
                acc = om.mult_index(acc, idx)
                order += 1
            shift = tuple((order - 1) * x for x in plus)
            plus = tuple(a + b for a, b in zip(plus, shift))
            minus = tuple(a + b for a, b in zip(minus, shift))
        return plus, minus

    def _split(self, lam):
        """The words $w_1$, $w_2$ and length-zero indices of the factors
        $T_{\\omega_1} \\prod_{w_1} T^*_{s} \\cdot T_{\\omega_2}
        \\prod_{w_2} T_{t}$ of the summand at ``lam``, and the exponent
        $\\delta$ of its normalizing power of $v$."""
        alg = self.module.alg
        datum = alg.datum
        if self.module.omega_mats is None:
            if not datum.in_coroot_lattice(lam):
                raise ValueError(
                    "orbit point outside the coroot lattice acts through "
                    "length-zero elements this module does not carry")
            plus, minus = self._coroot_decomposition(lam)
        else:
            plus, minus = alg.dominant_decomposition(lam)
        neg = tuple(-x for x in minus)
        w1, w2, w3 = self._word(plus), self._word(neg), self._word(lam)
        wd = lambda word: sum(datum.weights[s] for s in word)
        delta = wd(w1) + wd(w2) - wd(w3)
        assert delta >= 0
        om1 = alg.omega.index_of(alg.omega.element_for_translation(plus))
        om2 = alg.omega.index_of(alg.omega.element_for_translation(neg))
        if self.module.omega_mats is None:
            assert om1 == 0 and om2 == 0
        return w1, w2, om1, om2, delta

    def coefficient_of_term(self, lam) -> np.ndarray:
        """Matrix coefficient of the normalized orbit summand at ``lam``:
        the coefficient of $v^{\\delta}$ in the product
        $T_{\\omega_1} \\prod T^*_{s} \\cdot T_{\\omega_2} \\prod T_{t}$
        following the dominant/antidominant split of ``lam``."""
        if self.monomial is None:
            return self._dense_term(lam)
        return self._monomial_term(lam)

    def _diagonal(self, entries, word):
        """Coefficients mod ``p`` and exponents of the diagonal product of
        the monomial ``entries`` along ``word``, from its letter counts."""
        p = self.p
        counts = [(s, word.count(s)) for s in range(len(entries))]
        counts = [(s, k) for s, k in counts if k]
        out = []
        for i in range(self.n):
            c, e = 1, 0
            for s, k in counts:
                c = c * pow(entries[s][1][i], k, p) % p
                e += k * entries[s][2][i]
            out.append((c, e))
        return out

    def _monomial_term(self, lam) -> np.ndarray:
        """:meth:`coefficient_of_term` on the monomial route: the product
        $T_{\\omega_1} D_1 T_{\\omega_2} D_2$ sends row ``i`` to one
        column; its entry is kept when its exponent is $\\delta$."""
        w1, w2, om1, om2, delta = self._split(lam)
        t, star, omega = self.monomial
        cols1, a1, f1 = omega[om1]
        cols2, a2, f2 = omega[om2]
        d1, d2 = self._diagonal(star, w1), self._diagonal(t, w2)
        p = self.p
        out = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            j = cols1[i]
            k = cols2[j]
            e = f1[i] + d1[j][1] + f2[j] + d2[k][1]
            if e == delta:
                out[i, k] = a1[i] * d1[j][0] * a2[j] * d2[k][0] % p
        return out

    def _dense_term(self, lam) -> np.ndarray:
        """:meth:`coefficient_of_term` by truncated products of degree
        slices, one letter at a time."""
        w1, w2, om1, om2, delta = self._split(lam)
        t_slices, star_slices, omega_slices = self._slices
        cap = delta + 1
        cur = np.zeros((cap, self.n, self.n))
        if omega_slices is None:
            cur[0] = np.eye(self.n)
            for s in w1:
                cur = _truncated_apply(cur, star_slices[s], self.p)
        else:
            for f, g in omega_slices[om1]:
                if f < cap:
                    cur[f] = g
            for s in w1:
                cur = _truncated_apply(cur, star_slices[s], self.p)
            cur = _truncated_apply(cur, omega_slices[om2], self.p)
        for s in w2:
            cur = _truncated_apply(cur, t_slices[s], self.p)
        return cur[delta].astype(np.int64)


def central_orbit_matrix_v0(module: FinModule, orbit, p: int) -> np.ndarray:
    """Matrix of the central orbit sum at $v = 0$ over $F_p$, acting on
    the reduction of a Laurent module with a length-zero action."""
    actor = _OrbitActor(module, p)
    n = module.dim
    acc = np.zeros((n, n), dtype=np.int64)
    for lam in orbit:
        acc = (acc + actor.coefficient_of_term(lam)) % p
    return acc


def _nilpotency_degree(mat: np.ndarray, p: int) -> int | None:
    """Least $k$ with $M^k = 0$ mod $p$, or ``None`` when $M^n \\neq 0$."""
    n = mat.shape[0]
    cur = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        cur = (cur @ mat) % p
        if not cur.any():
            return k
    return None


def is_supersingular(module: FinModule, exhaustive: bool = False):
    """Nilpotency of every tested central orbit sum at $v = 0$.

    ``module`` must be a mod-$p$ reduction remembering its Laurent source
    (the matrices of central elements are extracted from the source by
    truncated products).  Orbits run over the dominant monoid generators
    of the lattice the module sees: the weight-compatible sublattice when
    length-zero elements act, the coroot lattice otherwise.  For the two
    largest exceptional types a single documented generator orbit is
    sampled unless ``exhaustive`` is set.

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
    if src.omega_mats is not None:
        gens = dominant_monoid_generators(datum, alg.effective_basis)
    else:
        gens = dominant_monoid_generators(datum, "coroot")
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
    flag = True
    for gen in gens:
        orbit = datum.weyl_orbit(gen)
        mat = central_orbit_matrix_v0(src, orbit, p)
        deg = _nilpotency_degree(mat, p)
        entries.append({"orbit": list(gen), "orbit_size": len(orbit),
                        "nilpotency_degree": deg,
                        "nilpotent": deg is not None})
        if deg is None:
            flag = False
    return flag, {"sampled": sampled, "orbits": entries}


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

    def to_json(self) -> dict:
        return dict(self.certificate)


def _supersingular_cert(flag: bool, detail: dict) -> dict:
    degrees = [e["nilpotency_degree"] for e in detail["orbits"]]
    cert = {
        "orbit": [e["orbit"] for e in detail["orbits"]],
        "nilpotency_degree": max((d for d in degrees if d is not None),
                                 default=0),
        "nilpotent": flag,
        "per_orbit": detail["orbits"],
    }
    if detail["sampled"]:
        cert["sampled"] = True
    return cert


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
    if d.kind == "A" and len(set(d.weights)) == 1:
        return SearchOutcome(
            case=CASE_EXCLUDED_A,
            certificate={"case": CASE_EXCLUDED_A,
                         "note": "type A with equal weights admits no "
                                 "discrete supersingular answer"})

    chars = enumerate_characters(alg, "generic")
    discrete = []
    for ch in chars:
        flag, table = is_discrete_character(alg, ch, level="coroot")
        if flag and not ch.is_special():
            discrete.append((ch, table))

    extendable = []
    for ch, table in discrete:
        flag, exts = character_extends(alg, ch)
        if flag:
            extendable.append((ch, table, exts))

    if extendable:
        ch, _, exts = extendable[0]
        ext = exts[0]
        module = ext.as_module(alg)
        eff_flag, eff_table = is_discrete_character(alg, ext,
                                                    level="effective")
        fp = module.reduce_mod_p(p)
        ss_flag, ss_detail = is_supersingular(fp, exhaustive=exhaustive)
        cert = {
            "case": CASE_ONE_DIM,
            "dimension": 1,
            "relations": "pass",
            "supersingular_mod_p": _supersingular_cert(ss_flag, ss_detail),
            "discrete": {"method": "exponent-table", "table": eff_table},
            "character": ext.to_json(),
        }
        return SearchOutcome(case=CASE_ONE_DIM, dimension=1, r=1,
                             character=ext, module=fp, certificate=cert)

    if discrete:
        ch, table = discrete[0]
        module = induce_character(alg, ch)
        _, twisted = stabilizer_and_twist(alg, ch)
        _, bar_table = is_discrete_character(alg, twisted, level="coroot")
        fp = module.reduce_mod_p(p)
        ss_flag, ss_detail = is_supersingular(fp, exhaustive=exhaustive)
        cert = {
            "case": CASE_TWO_DIM,
            "dimension": 2,
            "relations": "pass",
            "supersingular_mod_p": _supersingular_cert(ss_flag, ss_detail),
            "discrete": {"method": "exponent-table",
                         "table": {"component": table,
                                   "twisted_component": bar_table}},
            "character": ch.to_json(),
        }
        return SearchOutcome(case=CASE_TWO_DIM, dimension=2, r=2,
                             character=ch, module=fp, certificate=cert)

    if d.kind in ("D", "E"):
        module = reflection_module(alg).star_twist()
        fp = module.reduce_mod_p(p)
        ss_flag, ss_detail = is_supersingular(fp, exhaustive=exhaustive)
        cert = {
            "case": CASE_REFLECTION,
            "dimension": module.dim,
            "relations": "pass",
            "supersingular_mod_p": _supersingular_cert(ss_flag, ss_detail),
            "discrete": {"method": "cited-lusztig",
                         "table": {},
                         "note": "cited, not recomputed"},
        }
        return SearchOutcome(case=CASE_REFLECTION, dimension=module.dim,
                             module=fp, certificate=cert)

    return SearchOutcome(
        case=CASE_UNHANDLED,
        certificate={"case": CASE_UNHANDLED,
                     "note": "no construction in the case analysis applies "
                             f"to {d!r}"})

