"""Finite dimensional modules over extended affine Hecke algebras.

Everything here is a *right* module: a module of dimension $n$ assigns to
each distinguished generator an $n \\times n$ matrix, row vectors act on
the right, and consequently $M(xy) = M(x)\\,M(y)$.  Formulas stated for a
left action are converted by transposing.

Two kinds of one dimensional data appear.

* Generic characters send each generator $T_s$ to $-1$ or to $q_s$,
  constantly on conjugacy classes of affine nodes (the braid relations
  force class constancy when $q_s - 1$ is not a zero divisor).  There are
  $2^m$ of them, $m$ the number of classes.
* Mod-$p$ characters live over the reduction at $v = 0$ in characteristic
  $p$; there each $T_s$ may independently go to $0$ or $-1$, giving
  $2^{|S|}$ characters, and the values do not depend on $p$.

A character of the non-extended algebra may or may not extend to the
whole algebra across the length-zero subgroup; when its stabilizer has
index two the induced two dimensional module takes over.  For simply
laced affine diagrams the reflection module realizes the action on the
span of the affine simple roots, and twisting it by the sign involution
produces the module whose reduction at $v = 0$ splits into the family of
characters supported at single nodes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .errors import (CharacterExtends, DatumMismatch, NoIndexTwoStructure,
                     NotSimplyLaced, RelationsFail)
from .intlin import prime_below_2_63
from .laurent import _INT64_MAX, Laurent, LaurentMatrix, mod_p, q_power
from .rootdata import RootDatum
from .hecke import HeckeAlgebra, HeckeElt


def _as_algebra(datum) -> HeckeAlgebra:
    if isinstance(datum, HeckeAlgebra):
        return datum
    if isinstance(datum, RootDatum):
        return HeckeAlgebra(datum)
    raise TypeError(f"expected a root datum or Hecke algebra, got {type(datum)!r}")


def _check_datum(alg: HeckeAlgebra, char: "Character") -> None:
    if alg.datum != char.datum:
        raise DatumMismatch("character and algebra built from different data")


def _generic_algebra(algebra, char: "Character") -> HeckeAlgebra:
    """The algebra of ``algebra`` (a datum or an algebra) for a generic
    character ``char`` of its datum: ``ValueError`` for a mod-$p$
    character, ``DatumMismatch`` for one of another datum."""
    alg = _as_algebra(algebra)
    char._require_generic()
    _check_datum(alg, char)
    return alg


def _stack(mats, what: str) -> LaurentMatrix:
    if isinstance(mats, LaurentMatrix):
        return mats
    n = len(mats[0])
    for k, m in enumerate(mats):
        if len(m) != n or any(len(row) != n for row in m):
            raise RelationsFail(f"matrix at {what} {k} is not {n} x {n}")
    return LaurentMatrix.from_rows(mats)


@functools.cache
def _relations(coxeter_m: tuple[tuple[int, ...], ...],
               perms: tuple[tuple[int, ...], ...] | None):
    """The defining relations in reporting order, built once per Coxeter
    matrix and length-zero node permutations (``None`` without the
    length-zero group), which is all they depend on and of which the
    supported types have finitely many; on small modules building them
    costs more than checking them.  Returns the (message,
    arguments) of each, and an array holding its two words as
    consecutive rows.  A word lists indices into the factor bank of
    :meth:`FinModule.check_relations`: ``s`` for $T_s$, ``r + s`` for
    $T_s - q_s$, ``2r + s`` for $T_s + 1$, ``3r`` for 1, ``3r + 1`` for
    0 and ``3r + 2 + i`` for the ``i``-th length-zero element."""
    r = len(coxeter_m)
    one, om = 3 * r, 3 * r + 2
    # T_s^2 = (q_s - 1) T_s + q_s is (T_s - q_s)(T_s + 1) = 0
    rels = [("quadratic relation fails at node {}", (s,),
             [r + s, 2 * r + s], [one + 1]) for s in range(r)]
    for s, t in itertools.combinations(range(r), 2):
        m = coxeter_m[s][t]
        if m >= 2:
            rels.append(("braid relation of order {} fails at nodes {}, {}",
                         (m, s, t), [(s, t)[i % 2] for i in range(m)],
                         [(t, s)[i % 2] for i in range(m)]))
    if perms is not None:
        # the group acts faithfully on the nodes: the product of elements
        # i and j is the one permuting them by perms[i] after perms[j]
        k, by_perm = len(perms), {p: i for i, p in enumerate(perms)}
        rels.append(("identity length-zero element not identity", (),
                     [om], [one]))
        rels += [("length-zero multiplication fails at ({}, {})", (i, j),
                  [om + i, om + j],
                  [om + by_perm[tuple(perms[i][x] for x in perms[j])]])
                 for i in range(k) for j in range(k)]
        rels += [("conjugation by length-zero element {} fails at node {}",
                  (i, s), [om + i, s], [perms[i][s], om + i])
                 for i in range(k) for s in range(r)]
    width = max(len(w) for rel in rels for w in rel[2:])
    words = np.array([w + [one] * (width - len(w))
                      for rel in rels for w in rel[2:]])
    words.setflags(write=False)
    return tuple(rel[:2] for rel in rels), words


class Character:
    """A one dimensional datum, generic or mod-$p$.

    Generic characters hold one sign per conjugacy class of affine nodes
    (``+1`` meaning $T_s \\mapsto q_s$ and ``-1`` meaning $T_s \\mapsto -1$)
    and optionally a tuple of signs on the weight-preserving length-zero
    group, aligned with its element order.  Mod-$p$ characters hold one
    value in $\\{0, -1\\}$ per affine node.
    """

    __slots__ = ("datum", "mode", "values", "omega_signs")

    def __init__(self, datum: RootDatum, mode: str, values: tuple[int, ...],
                 omega_signs: tuple[int, ...] | None = None):
        if mode not in ("generic", "modp"):
            raise ValueError(f"unknown character mode {mode!r}")
        if mode == "generic":
            if len(values) != len(datum.classes):
                raise ValueError("need one sign per node class")
            if any(v not in (1, -1) for v in values):
                raise ValueError("generic character signs must be +1 or -1")
        else:
            if len(values) != datum.rank + 1:
                raise ValueError("need one value per affine node")
            if any(v not in (0, -1) for v in values):
                raise ValueError("mod-p character values must be 0 or -1")
            if omega_signs is not None:
                raise ValueError("mod-p characters carry no length-zero signs")
        if omega_signs is not None and any(v not in (1, -1) for v in omega_signs):
            raise ValueError("length-zero signs must be +1 or -1")
        self.datum = datum
        self.mode = mode
        self.values = tuple(values)
        self.omega_signs = None if omega_signs is None else tuple(omega_signs)

    @staticmethod
    def generic(datum: RootDatum, signs: Sequence[int],
                omega_signs: Sequence[int] | None = None) -> "Character":
        om = None if omega_signs is None else tuple(omega_signs)
        return Character(datum, "generic", tuple(signs), om)

    @staticmethod
    def modp(datum: RootDatum, values: Sequence[int]) -> "Character":
        return Character(datum, "modp", tuple(values))

    def _require_generic(self) -> None:
        if self.mode != "generic":
            raise ValueError(f"expected a generic character, got {self!r}")

    def sign_on_class(self, k: int) -> int:
        self._require_generic()
        return self.values[k]

    def sign_on_node(self, s: int) -> int:
        self._require_generic()
        return self.values[self.datum.class_of_node[s]]

    def node_value(self, s: int):
        """Value on the standard generator at node ``s``.

        A Laurent polynomial in generic mode, a plain integer mod-$p$.
        """
        if self.mode == "generic":
            if self.sign_on_node(s) == 1:
                return q_power(self.datum.weights[s])
            return Laurent.of_int(-1)
        return self.values[s]

    def is_trivial(self) -> bool:
        if self.mode == "generic":
            return all(v == 1 for v in self.values) and self._omega_trivial()
        return all(v == 0 for v in self.values)

    def is_special(self) -> bool:
        """True for the character sending every generator to ``-1``."""
        if self.mode == "generic":
            return all(v == -1 for v in self.values) and self._omega_trivial()
        return all(v == -1 for v in self.values)

    def _omega_trivial(self) -> bool:
        return self.omega_signs is None or all(v == 1 for v in self.omega_signs)

    def with_omega_signs(self, signs: Sequence[int]) -> "Character":
        self._require_generic()
        return Character(self.datum, "generic", self.values, tuple(signs))

    def compose_with_node_permutation(self, perm: Sequence[int]) -> "Character":
        """The character $T_s \\mapsto \\chi(T_{\\pi(s)})$ for a diagram
        permutation $\\pi$; only defined when $\\pi$ maps classes to classes."""
        self._require_generic()
        cls_of = self.datum.class_of_node
        new = [None] * len(self.values)
        for s in range(self.datum.rank + 1):
            k = cls_of[s]
            v = self.values[cls_of[perm[s]]]
            if new[k] is None:
                new[k] = v
            elif new[k] != v:
                raise ValueError("permutation does not respect node classes")
        return Character(self.datum, "generic", tuple(new), self.omega_signs)

    def label(self) -> str:
        if self.mode == "generic":
            parts = []
            for k, cls in enumerate(self.datum.classes):
                d = self.datum.weights[cls[0]]
                if self.values[k] == 1:
                    parts.append("q" if d == 1 else f"q^{d}")
                else:
                    parts.append("-1")
            body = "(" + ", ".join(parts) + ")"
            if self.omega_signs is not None:
                body += " | omega " + str(tuple(self.omega_signs))
            return body
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def reduce(self) -> "Character":
        """The mod-$p$ character obtained by evaluating at $v = 0$;
        $q_s \\mapsto 0$ and $-1$ stays put.  Independent of $p$."""
        self._require_generic()
        vals = tuple(0 if self.sign_on_node(s) == 1 else -1
                     for s in range(self.datum.rank + 1))
        return Character(self.datum, "modp", vals)

    def as_module(self, algebra, p: int | None = None) -> "FinModule":
        """The one dimensional module realizing this character.

        Generic characters give a module over the Laurent ring (``p`` must
        stay ``None``); mod-$p$ characters need the prime."""
        alg = _as_algebra(algebra)
        _check_datum(alg, self)
        if self.mode == "generic" and p is not None:
            raise ValueError("generic characters reduce via reduce_mod_p")
        if self.mode == "modp" and p is None:
            raise ValueError("mod-p characters need the prime")
        # mod-p characters carry no length-zero signs
        omats = (None if self.omega_signs is None
                 else tuple(((sig,),) for sig in self.omega_signs))
        smats = tuple(((self.node_value(s),),)
                      for s in range(self.datum.rank + 1))
        kind = "character" if self.mode == "generic" else "mod-p character"
        mod = FinModule(alg, smats, omats, prime=p,
                        name=f"{kind} {self.label()}")
        mod.check_relations()
        return mod

    def __eq__(self, other) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return (self.mode == other.mode and self.values == other.values
                and self.omega_signs == other.omega_signs
                and self.datum == other.datum)

    def __hash__(self):
        return hash((self.mode, self.values, self.omega_signs))

    def __repr__(self):
        return f"Character[{self.mode}]{self.label()}"

    def to_json(self) -> dict:
        out = {"mode": self.mode, "label": self.label(),
               "values": list(self.values)}
        if self.omega_signs is not None:
            out["omega_signs"] = list(self.omega_signs)
        return out


# Degree slices that one relation check of a character family stacks,
# summed over its members.  A generic member spans 2 max(w) + 1 slices and a
# mod-p member one, so every family of small weights takes one check, while
# at the weight bound (rootdata.MAX_WEIGHT) each member takes a check of its
# own: the memory of a check grows with the slices it stacks.
FAMILY_SLICES = 1 << 12


def _check_family(alg: HeckeAlgebra, coeffs, degrees,
                  prime: int | None = None) -> None:
    """Check a family of one dimensional modules against the relations.

    Member ``k`` sends $T_s$ to ``coeffs[k, s]`` $v^{d}$ with
    $d$ = ``degrees[k, s]`` $\\ge 0$ (with a ``prime``, read mod it at
    $v = 0$).  The members run through :meth:`FinModule.check_relations`
    as stacks of at most ``FAMILY_SLICES`` degree slices (one member at
    least), in order; a :class:`RelationsFail` names the first failing
    member by its row ``k`` over the whole family."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    members, nodes = coeffs.shape
    size = int(degrees.max(initial=0)) + 1
    step = max(1, FAMILY_SLICES // size)
    for start in range(0, members, step):
        rows = slice(start, start + step)
        part = coeffs[rows]
        stack = np.zeros((nodes, len(part), size, 1, 1), dtype=np.int64)
        stack[np.arange(nodes), np.arange(len(part))[:, None],
              degrees[rows], 0, 0] = part
        try:
            FinModule(alg, LaurentMatrix(0, stack), None,
                      prime=prime).check_relations()
        except RelationsFail as exc:
            raise RelationsFail(exc.relation, (start + exc.member[0],),
                                exc.values) from None


def enumerate_characters(datum, char_mode: str = "generic") -> tuple[Character, ...]:
    """All one dimensional characters, verified against the relations.

    ``generic`` runs over sign patterns on node classes ($2^m$ of them,
    trivial first, $T_s \\mapsto q_s = v^{2 w_s}$ or $-1$); ``modp`` runs
    over per-node values in $\\{0, -1\\}$ ($2^{|S|}$, all of which satisfy
    the relations since $q \\equiv 0$ makes the braid products collapse).
    Either family is verified as a stack of 1x1 modules by
    :func:`_check_family`, in one relation check while its members times
    their degree slices ($2 \\max w + 1$ generic, one mod $p$) stay
    within ``FAMILY_SLICES``; at the weight bound each generic member
    takes a check of its own.
    """
    alg = _as_algebra(datum)
    d = alg.datum
    if char_mode not in ("generic", "modp"):
        raise ValueError(f"unknown character mode {char_mode!r}")
    generic = char_mode == "generic"
    choices, count = (((1, -1), len(d.classes)) if generic
                      else ((0, -1), d.rank + 1))
    chars = tuple(Character(d, char_mode, values)
                  for values in itertools.product(choices, repeat=count))
    values = np.array([ch.values for ch in chars], dtype=np.int64)
    if generic:
        classes = [d.class_of_node[s] for s in range(d.rank + 1)]
        plus = values[:, classes] == 1
        degrees = plus * (2 * np.array(d.weights))
        _check_family(alg, np.where(plus, 1, -1), degrees)
    else:
        # products of values in {0, -1} lie in {0, 1, -1}, so the relations
        # hold mod an odd prime exactly when they hold over Z, hence mod
        # every prime: one check at p = 5 covers them all
        _check_family(alg, values, np.zeros_like(values), prime=5)
    return chars


def _stabilizer(alg: HeckeAlgebra, char: Character) -> list[int]:
    """The indices of the weight-preserving length-zero elements that fix
    a generic character of ``alg``'s datum: those whose node permutation
    $\\pi$ keeps its sign, $\\chi(\\pi(s)) = \\chi(s)$ at every node
    $s$."""
    cls = alg.datum.class_of_node
    signs = [char.values[cls[s]] for s in range(alg.datum.rank + 1)]
    return [i for i, perm in enumerate(alg.omega.perms)
            if all(signs[t] == sign for t, sign in zip(perm, signs))]


def character_extends(algebra, char: Character):
    """Whether a generic character extends over the length-zero group.

    Returns ``(flag, extensions)`` where ``extensions`` lists one
    extended character per group homomorphism from the weight-preserving
    length-zero group to $\\{\\pm 1\\}$ (the group's
    :attr:`~heckelab.extweyl.OmegaGroup.sign_characters`), the all-plus
    extension first.  The character extends exactly when the whole group
    fixes it (:func:`_stabilizer`).  ``char`` must be a generic character
    of the algebra's datum: ``ValueError`` for a mod-p one,
    ``DatumMismatch`` for one of another datum.
    """
    alg = _generic_algebra(algebra, char)
    if len(_stabilizer(alg, char)) < len(alg.omega):
        return False, ()
    return True, tuple(map(char.with_omega_signs, alg.omega.sign_characters))


def stabilizer_and_twist(algebra, char: Character):
    """The indices of the weight-preserving length-zero elements that fix
    a generic character of the algebra's datum (:func:`_stabilizer`), and
    its twist by the first element outside them (by the identity when
    there is none): ``ValueError`` for a mod-p character,
    ``DatumMismatch`` for one of another datum."""
    alg = _generic_algebra(algebra, char)
    perms = alg.omega.perms
    stab = _stabilizer(alg, char)
    u = min(set(range(len(perms))) - set(stab), default=0)
    return stab, char.compose_with_node_permutation(perms[u])


def induce_character(algebra, char: Character) -> "FinModule":
    """The two dimensional module induced from a non-extending character.

    Requires the stabilizer of the character inside the weight-preserving
    length-zero group to have index two (``CharacterExtends`` at index
    one, else ``NoIndexTwoStructure``); the two diagonal entries are the
    character and its twist by a fixed coset representative, and every
    length-zero element outside the stabilizer acts by the swap matrix.
    ``char`` must be a generic character of the algebra's datum:
    ``ValueError`` for a mod-p one, ``DatumMismatch`` for one of another
    datum.
    """
    alg = _generic_algebra(algebra, char)
    n = len(alg.omega)
    stab, twisted = stabilizer_and_twist(alg, char)
    if len(stab) == n:
        raise CharacterExtends(f"{char.label()} extends; induction would "
                               f"not be simple")
    if 2 * len(stab) != n:
        raise NoIndexTwoStructure(
            f"stabilizer has index {n // len(stab)} in the length-zero group")
    smats = tuple(((char.node_value(s), 0), (0, twisted.node_value(s)))
                  for s in range(alg.datum.rank + 1))
    omats = tuple(((1, 0), (0, 1)) if i in stab else ((0, 1), (1, 0))
                  for i in range(n))
    mod = FinModule(alg, smats, omats, name=f"induced from {char.label()}")
    mod.check_relations()
    return mod


class FinModule:
    """A finite dimensional right module given by generator matrices.

    ``smats`` stacks the matrices of the standard generators, one per
    affine node, in one :class:`LaurentMatrix` of shape
    ``(node, degree, n, n)``; ``omega_mats`` (when present) stacks those
    of the algebra's weight-preserving length-zero group in its element
    order.  Without ``omega_mats`` the module only sees the non-extended
    algebra.  Both also accept nested rows of ``Laurent`` or ints; a
    matrix that is not square, or length-zero matrices of another size
    than the node matrices, raise :class:`RelationsFail`.

    A :class:`LaurentMatrix` may also carry *family axes* between the
    node (or element) axis and the degree axis, of shape
    ``(node, *family, degree, n, n)``: then the object is a stack of
    modules of one dimension, which :meth:`check_relations` verifies in
    one batch.

    With a ``prime`` below $2^{63}$ (else ``ValueError``, from
    :func:`~heckelab.intlin.prime_below_2_63`) the module lives over
    $F_p$ at $v = 0$: its int64 tensors are the degree-0 slices of the
    given matrices taken mod ``p``, and a reduction remembers the module
    it came from in ``generic``.  ``checked`` is true once
    :meth:`check_relations` has passed (or, on a reduction, once it passed
    on ``generic``).
    """

    __slots__ = ("alg", "smats", "omega_mats", "prime", "generic", "name",
                 "checked", "__weakref__")

    def __init__(self, alg: HeckeAlgebra, smats, omega_mats,
                 prime: int | None = None,
                 generic: "FinModule | None" = None, name: str = ""):
        prime = None if prime is None else prime_below_2_63(prime)
        self.alg = alg
        self.prime = prime
        self.generic = generic
        self.name = name
        self.checked = False
        if omega_mats is not None and len(omega_mats) != len(alg.omega):
            raise ValueError("need one matrix per length-zero element")
        self.omega_mats = (None if omega_mats is None else self._reduce(
            _stack(omega_mats, "length-zero element")))
        if len(smats) != alg.datum.rank + 1:
            raise ValueError("need one matrix per affine node")
        self.smats = self._reduce(_stack(smats, "node"))
        if self.omega_mats is not None:
            m, n = self.omega_mats.coeffs.shape[-1], self.dim
            if m != n:
                raise RelationsFail(f"length-zero matrices are {m} x {m}, "
                                    f"node matrices {n} x {n}")

    @property
    def dim(self) -> int:
        return self.smats.coeffs.shape[-1]

    @property
    def is_modular(self) -> bool:
        return self.prime is not None

    def _require_laurent(self) -> None:
        if self.prime is not None:
            raise ValueError(f"expected a module over Z[v, 1/v], got {self!r}")

    def _reduce(self, mats: LaurentMatrix) -> LaurentMatrix:
        return mats if self.prime is None else mats.reduce(self.prime)

    def q_stack(self) -> LaurentMatrix:
        """$q_s$ times the identity, stacked over the nodes (zero at
        $v = 0$, so for a mod-$p$ module), with a length-one axis per
        family axis of ``smats``."""
        w, n = self.alg.datum.weights, self.dim
        c = np.zeros((len(w), 2 * max(w) + 1, n, n), dtype=np.int64)
        c[range(len(w)), [2 * d for d in w]] = np.eye(n, dtype=np.int64)
        ones = (1,) * (self.smats.coeffs.ndim - 4)
        c = c.reshape(c.shape[:1] + ones + c.shape[1:])
        return self._reduce(LaurentMatrix(0, c))

    def check_relations(self) -> None:
        """Verify quadratic, braid and length-zero relations; raise
        :class:`RelationsFail` naming the first violation.

        Each relation is a pair of words in a bank of factor matrices, so
        all of them run as one batch: one product of stacked integer
        matrices per letter of the longest word, shorter words padded
        with the identity.  On a stack of modules (family axes in
        ``smats``) the identity, zero, $q_s$ and length-zero entries of
        the bank (:meth:`_bank`) broadcast over the family, so the whole stack is checked by the
        same products; a failure names the first failing member in
        row-major order, its index and node values, and its first
        failing relation.

        Over $F_p$ each factor is one integer matrix and every product
        is reduced mod $p$.  Over the Laurent ring each entry $f$ is
        packed into the integer $v^{-l} f$ at $v = 2^b$, $l$ the least
        live degree of the bank (Kronecker substitution, a ring map;
        :meth:`LaurentMatrix.packed_along`); every word has ``width``
        letters, so both sides of a relation carry the shift
        $v^{-l \\cdot width}$.  The slot width $b$ is proved, not tested:
        the entrywise L1 norms of the bank (the sums of the absolute
        values of the coefficients), multiplied as nonnegative matrices
        along each prefix of each word, bound every coefficient of every
        partial product, as the norm of a product of polynomials is at
        most the product of their norms.  With $M$ the largest of these
        bounds and of the bank's coefficients, $b$ =
        ``M.bit_length() + 1`` keeps every coefficient below $2^{b-1}$ in
        absolute value, where balanced base-$2^b$ digits are unique, so
        two sides agree exactly when their packed values do.  The
        partial sums of each product obey the same bound and stay below
        $2^{b \\cdot slots}$, $slots = width (S - 1) + 1$ for a bank of
        degree span $S$: they run on int64 while $b \\cdot slots < 63$
        and on Python ints otherwise."""
        omats, smats, p = self.omega_mats, self.smats, self.prime
        family = smats.coeffs.shape[1:-3]
        bank = self._bank()
        labels, words = _relations(
            self.alg.datum.coxeter_m,
            None if omats is None else self.alg.omega.perms)
        if p is None:
            factors = bank.packed_along(words)
        else:
            factors = mod_p(bank.coeffs[..., 0, :, :], p)
        prod = factors[words[:, 0]]
        for column in words.T[1:]:
            prod = prod @ factors[column]
            if p is not None:
                prod %= p
        bad = (prod[0::2] != prod[1::2]).any(axis=(-2, -1))
        bad = bad.reshape(len(labels), -1)
        if not bad.any():
            self.checked = True
            return
        member = int(np.argmax(bad.any(axis=0)))
        message, args = labels[int(np.argmax(bad[:, member]))]
        message = message.format(*args)
        if not family:
            raise RelationsFail(message)
        index = tuple(map(int, np.unravel_index(member, family)))
        mats = smats[(slice(None),) + index]
        values = [[[str(mats.entry(s, i, j)) for j in range(self.dim)]
                   for i in range(self.dim)] for s in range(len(mats))]
        if self.dim == 1:
            values = [m[0][0] for m in values]
        raise RelationsFail(message, index, values)

    def _bank(self) -> LaurentMatrix:
        """The factor bank of :meth:`check_relations`, in the order of
        :func:`_relations`: $T_s$, $T_s - q_s$ and $T_s + 1$ per node, 1,
        0 and the length-zero matrices, filled into one preallocated
        array.  Its family axes are those of ``smats``, over which every
        other factor broadcasts, and its degree axis runs from the least
        to the greatest degree of any factor ($q_s$ is zero mod $p$).
        It holds Python ints where a factor does or where $T_s \\pm 1$
        could leave int64 (the largest magnitude of ``smats`` plus one
        past $2^{63} - 1$), else int64."""
        smats, omats, n = self.smats, self.omega_mats, self.dim
        r = len(smats)
        parts = [smats] + ([] if omats is None else [omats])
        weights = self.alg.datum.weights
        top = 1 if self.prime is not None else 2 * max(weights) + 1
        lo = min(0, *(m.lo for m in parts))
        hi = max(top, *(m.lo + m.coeffs.shape[-3] for m in parts))
        big = (smats.magnitude() + 1 > _INT64_MAX
               or any(m.coeffs.dtype == object for m in parts))
        family = smats.coeffs.shape[1:-3]
        bank = np.zeros((3 * r + 2 + (0 if omats is None else len(omats)),)
                        + family + (hi - lo, n, n),
                        dtype=object if big else np.int64)

        def degrees(m: LaurentMatrix) -> slice:
            return slice(m.lo - lo, m.lo - lo + m.coeffs.shape[-3])

        for start in (0, r, 2 * r):
            bank[start:start + r, ..., degrees(smats), :, :] = smats.coeffs
        eye = np.eye(n, dtype=np.int64)
        if self.prime is None:
            for s, w in enumerate(weights):
                bank[r + s, ..., 2 * w - lo, :, :] -= eye
        bank[2 * r:3 * r + 1, ..., -lo, :, :] += eye
        if omats is not None:
            c = omats.coeffs
            bank[3 * r + 2:, ..., degrees(omats), :, :] = c.reshape(
                c.shape[:1] + (1,) * len(family) + c.shape[1:])
        return LaurentMatrix(lo, bank)

    def mat_of_omega(self, omega_elt) -> LaurentMatrix:
        if omega_elt.is_identity():
            return self._reduce(LaurentMatrix.identity(self.dim))
        if self.omega_mats is None:
            raise ValueError("module has no action of length-zero elements")
        return self.omega_mats[self.alg.omega.index_of(omega_elt)]

    def act_word(self, word: Sequence[int]) -> LaurentMatrix:
        """Matrix of $T_{s_{i_1}} \\cdots T_{s_{i_k}}$."""
        out = self._reduce(LaurentMatrix.identity(self.dim))
        for s in word:
            out = self._reduce(out @ self.smats[s])
        return out

    def act(self, elt: HeckeElt) -> LaurentMatrix:
        """Matrix of a general algebra element (Laurent ring only): a
        ``ValueError`` on a mod-$p$ module, ``DatumMismatch`` for an
        element of another datum."""
        self._require_laurent()
        if elt.alg.datum != self.alg.datum:
            raise DatumMismatch("element and module built from different "
                                "data")
        n = self.dim
        acc = LaurentMatrix(0, np.zeros((1, n, n), dtype=np.int64))
        for w, coeff in elt.terms.items():
            omega, word = w.reduced_word()
            c = LaurentMatrix.from_rows([[[coeff]]])[0]
            scalar = LaurentMatrix(c.lo, c.coeffs * np.eye(n, dtype=np.int64))
            acc = acc + scalar @ self.mat_of_omega(omega) @ self.act_word(word)
        return acc

    def star_twist(self) -> "FinModule":
        """Precompose with the sign involution $T_s \\mapsto -T_s^*$.

        Each generator matrix $M_s$ becomes $-M_s + (q_s - 1)\\,I$;
        length-zero matrices are unchanged.  Applying it twice gives back
        the original matrices.  The involution is an algebra automorphism
        fixing the length-zero elements, so the twist of a module whose
        own check passed satisfies the relations; only the twist of an
        unchecked module is checked.  A mod-$p$ module raises
        ``ValueError``.
        """
        self._require_laurent()
        smats = self.q_stack() - LaurentMatrix.identity(self.dim) - self.smats
        mod = FinModule(self.alg, smats, self.omega_mats,
                        name=f"twist of {self.name}")
        if self.checked:
            mod.checked = True
        else:
            mod.check_relations()
        return mod

    def reduce_mod_p(self, p: int) -> "FinModule":
        """Evaluate all entries at $v = 0$ and read them in $F_p$.

        Raises ``ValueError`` unless ``p`` is prime and
        :class:`NegativePowersPresent` if any entry has a pole at $v = 0$.
        The result keeps a reference to this module.  Evaluation at
        $v = 0$ followed by reduction mod $p$ is a ring map, so the
        relations of a module whose own check passed hold in the
        reduction; only the reduction of an unchecked module is checked."""
        mod = FinModule(self.alg, self.smats, self.omega_mats, prime=p,
                        generic=self, name=f"{self.name} mod {p}")
        if self.checked:
            mod.checked = True
        else:
            mod.check_relations()
        return mod

    def __repr__(self):
        ring = "Z[v, 1/v]" if self.prime is None else f"F_{self.prime}"
        label = self.name or "module"
        return f"FinModule({label}, dim {self.dim} over {ring})"


def reflection_module(datum) -> FinModule:
    """The module on the span of the affine simple roots.

    Only defined for simply laced affine diagrams with equal weights.
    As a left action the generator at ``s`` sends $e_t$ to $-e_t$ when
    $t = s$, to $q\\,e_t$ when the nodes are not adjacent, and to
    $q\\,e_t + v^d\\,e_s$ when they are joined by a single bond; here the
    matrices are transposed to act on row vectors.  Length-zero elements
    permute the basis.
    """
    alg = _as_algebra(datum)
    d = alg.datum
    n = d.rank + 1
    for s in range(n):
        for t in range(s + 1, n):
            if d.coxeter_m[s][t] not in (2, 3):
                raise NotSimplyLaced(
                    f"bond of order {d.coxeter_m[s][t]} between nodes "
                    f"{s} and {t}")
    if len(set(d.weights)) != 1:
        raise NotSimplyLaced("reflection module needs equal weights")
    deg = d.weights[0]
    smats = np.zeros((n, 2 * deg + 1, n, n), dtype=np.int64)
    for s in range(n):
        for t in range(n):
            if t == s:
                smats[s, 0, t, t] = -1
            else:
                smats[s, 2 * deg, t, t] = 1
                if d.coxeter_m[s][t] == 3:
                    smats[s, deg, t, s] = 1
    perms = alg.omega.perms
    omats = np.zeros((len(perms), 1, n, n), dtype=np.int64)
    for k, perm in enumerate(perms):
        omats[k, 0, list(perm), range(n)] = 1
    mod = FinModule(alg, LaurentMatrix(0, smats), LaurentMatrix(0, omats),
                    name=f"reflection module {d.label()}")
    mod.check_relations()
    return mod


def decompose_at_v0(module: FinModule) -> tuple[Character, ...]:
    """Split a module at $v = 0$ into mod-$p$ characters.

    Requires polynomial entries whose value at $v = 0$ makes every
    generator matrix diagonal with entries in $\\{0, -1\\}$; the result
    lists one character per basis index and does not depend on any prime.
    Length-zero matrices are ignored, the split is one of modules over
    the non-extended algebra.  A mod-$p$ module raises ``ValueError``.
    """
    module._require_laurent()
    v0 = module.smats.at_v0()
    diag = np.diagonal(v0, axis1=1, axis2=2)
    for s, (mat, values) in enumerate(zip(v0, diag.tolist())):
        if (mat - np.diag(values)).any():
            raise RelationsFail(f"matrix at node {s} is not diagonal at v = 0")
        bad = [x for x in values if x not in (0, -1)]
        if bad:
            raise RelationsFail(
                f"diagonal value {bad[0]} at v = 0 is outside {{0, -1}}")
    return tuple(Character.modp(module.alg.datum, tuple(col))
                 for col in diag.T.tolist())
