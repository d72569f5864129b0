"""Exact linear algebra over the integers at tiny sizes.

Everything here operates on lists of Python ints, or on int64 stacks of
points, and never touches floating point or rationals.  Matrices are lists
of rows.  Sizes are bounded by the rank of the root system (at most 8),
so cubic algorithms are plenty.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]


def is_int(x) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return type(x) is int or (isinstance(x, numbers.Integral)
                               and not isinstance(x, bool))


def mat_vec(m: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    """Matrix times column vector."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> tuple[tuple[int, ...], ...]:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster,
# *Strong pseudoprimes to twelve prime bases*, Math. Comp. 86 (2017))
_MR_LIMIT = 318665857834031151167461


def is_prime(p) -> bool:
    """Primality of an integer that is not a bool (numpy integers count)
    by Miller-Rabin over the first twelve prime bases, deterministic
    below $3.18 \\cdot 10^{23}$; beyond that bound it raises
    ``ValueError``."""
    if not (is_int(p) and p >= 2):
        return False
    p = int(p)
    if p >= _MR_LIMIT:
        raise ValueError(f"{p} is past the exact Miller-Rabin bound")
    if p in _MR_BASES or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x not in (1, p - 1) and all(
                (x := x * x % p) != p - 1 for _ in range(r - 1)):
            return False
    return True


def prime_below_2_63(p) -> int:
    """``p`` as a Python int when it is a prime below $2^{63}$, the bound
    of the int64 tensors of a mod-$p$ module (numpy integers count);
    ``ValueError`` for anything else, a bool included."""
    if not (is_int(p) and p < 2**63 and is_prime(p)):
        raise ValueError(f"'p' must be a prime below 2^63, got {p!r}")
    return int(p)


@functools.cache
def identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity matrix, built once per n (it is immutable)."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*m))


def echelon_mod(a: np.ndarray, q: int) -> np.ndarray:
    """The nonzero rows of the reduced row echelon form over $F_q$ of an
    int64 matrix with entries in $[0, q)$, for a prime $q < 2^{31}$ (so
    that a product of two entries fits int64): one pivot column at a time,
    cleared in every other row.  Their number is the rank."""
    a = a.copy()
    rank = 0
    for col in range(a.shape[1]):
        if rank == len(a):
            break
        nz = rank + np.flatnonzero(a[rank:, col])
        if not nz.size:
            continue
        a[[rank, nz[0]]] = a[[nz[0], rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, q) % q
        others = np.flatnonzero(a[:, col])
        others = others[others != rank]
        a[others] = (a[others] - a[others, col, None] * a[rank]) % q
        rank += 1
    return a[:rank]


def solve_mod(rows: IntMatrix, rhs: Sequence[int], q: int) -> np.ndarray | None:
    """One solution $x$ in $[0, q)$ of ``rows`` $x$ = ``rhs`` over $F_q$,
    free unknowns 0, or ``None`` when the system has none: Gauss-Jordan
    elimination of the augmented matrix on Python ints, which beats
    :func:`echelon_mod` at the few unknowns of a lattice basis."""
    width = np.shape(rows)[1]
    a = [[x % q for x in row] + [b % q] for row, b in zip(
        np.asarray(rows).tolist(), np.asarray(rhs).tolist())]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, q)
        a[r] = [x * inv % q for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[col]:
                f = row[col]
                a[i] = [(x - f * y) % q for x, y in zip(row, a[r])]
        pivots.append(col)
    if any(row[-1] for row in a[len(pivots):]):
        return None
    x = np.zeros(width, dtype=np.int64)
    x[pivots] = [row[-1] for row in a[:len(pivots)]]
    return x


@functools.cache
def lattice_rays(echelon: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The least positive $a_i$ with $a_i e_i$ in the full-rank lattice
    with echelon basis ``echelon``, a tuple of row tuples, for each
    coordinate $i$: $k e_i$ lies in the lattice exactly when $k$ times row
    $i$ of the inverse basis is integral.  The basis is upper triangular
    with positive pivots $u_{mm}$, so that row is found by
    back-substitution on integers: $c$ holds it times the least $k$ found
    so far, starting from $c_i = 1$; at column $m > i$ the sum
    $s = \\sum_{i \\le j < m} c_j u_{jm}$ gives $c_m = -s / u_{mm}$ once
    every $c$ is scaled by $u_{mm} / \\gcd(s, u_{mm})$, and
    $a_i = c_i u_{ii}$.  Memoized per basis, so the monoid generators and
    the Bernstein split of one lattice share one computation."""
    n = len(echelon)
    rays = []
    for i in range(n):
        c = [1]
        for m in range(i + 1, n):
            s = sum(cj * echelon[j][m] for j, cj in enumerate(c, i))
            pivot = echelon[m][m]
            scale = pivot // math.gcd(s, pivot)
            c = [cj * scale for cj in c]
            c.append(-s * scale // pivot)
        rays.append(c[0] * echelon[i][i])
    return tuple(rays)


def echelon_basis(rows: IntMatrix, width: int) -> tuple[tuple[int, ...], ...]:
    """Echelon-form basis of the integer row lattice spanned by ``rows``.

    The result rows have strictly increasing pivot columns, each pivot is
    positive and is the first nonzero entry of its row.  This is enough
    structure for exact membership tests and canonical coset reduction.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    result: list[list[int]] = []
    for col in range(width):
        while True:
            nz = [r for r in work if r[col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            piv = nz[0]
            for r in nz[1:]:
                f = r[col] // piv[col]
                for j in range(width):
                    r[j] -= f * piv[j]
        nz = [r for r in work if r[col]]
        if nz:
            piv = nz[0]
            work.remove(piv)
            if piv[col] < 0:
                piv = [-x for x in piv]
            result.append(piv)
        work = [r for r in work if any(r)]
    return tuple(tuple(r) for r in result)


def in_row_lattice(echelon: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Membership of an integer vector in the lattice with echelon basis."""
    rem = list(v)
    for row in echelon:
        col = next(j for j, x in enumerate(row) if x)
        if rem[col] % row[col]:
            return False
        f = rem[col] // row[col]
        for j in range(len(rem)):
            rem[j] -= f * row[j]
    return not any(rem)


def lattice_reach(echelon: Sequence[Sequence[int]]) -> int:
    """The largest magnitude $M$ of the entries of a stack that
    :func:`lattice_coordinates` reduces on the basis ``echelon`` in int64:
    each basis row multiplies the bound $M + 1$ on the entries by at most
    $1 + B$, for $B$ the largest basis entry, so the reduction stays in
    int64 while $(M + 1)(1 + B)^{rank} < 2^{63}$."""
    grow = 1 + max((abs(x) for row in echelon for x in row), default=0)
    return -(-2**63 // grow ** len(echelon)) - 2


def lattice_coordinates(echelon: Sequence[Sequence[int]], rows):
    """The coordinates in the basis ``echelon`` of every row of an
    (N, width) integer stack, by back-substitution, and the remainders,
    two int64 stacks: one basis row at a time over all rows, each row's
    coordinate the multiple of it that the reduction subtracts.

    A row's remainder is zero exactly when it lies in the lattice, for
    any echelon basis (:func:`in_row_lattice`), and its coordinates mean
    something exactly then; with a square basis the remainders are the
    canonical coset representatives.  A stack with an entry past
    :func:`lattice_reach`, which could leave int64, is refused with
    ``OverflowError``."""
    rem = np.array(rows, dtype=np.int64)
    top = max(int(rem.max(initial=0)), -int(rem.min(initial=0)))
    if top > lattice_reach(echelon):
        raise OverflowError("stack entries too large for an int64 "
                            "lattice reduction")
    coords = np.empty((len(rem), len(echelon)), dtype=np.int64)
    for r, row in enumerate(echelon):
        col = next(j for j, x in enumerate(row) if x)
        coords[:, r] = rem[:, col] // row[col]
        rem -= coords[:, r, None] * np.asarray(row, dtype=np.int64)
    return coords, rem
