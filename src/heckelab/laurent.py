r"""Exact Laurent polynomials in one variable over the integers.

The ring $\mathbb{Z}[v, v^{-1}]$ is the scalar ring for everything in this
package: Hecke algebra structure constants live here, and the parameter of
a node with weight $d$ is $q_s = v^{2d}$.  Coefficients are Python ints so
nothing ever overflows or loses precision.

Internally a :class:`Laurent` is a dict mapping exponent to a *nonzero*
integer coefficient.  The zero polynomial is the empty dict.  Matrices of
Laurent polynomials are :class:`LaurentMatrix` tensors indexed by exponent.

>>> x = Laurent.v() + Laurent.of_int(3)
>>> print(x * x)
9 + 6*v + v^2
>>> print(x.shift(-1))
3*v^-1 + 1
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .errors import NegativePowersPresent
from .intlin import is_int

__all__ = ["Laurent", "LaurentMatrix", "mod_p", "q_power"]

_INT64_MAX = 2**63 - 1


class Laurent:
    """An element of Z[v, v^-1], stored sparsely by exponent.

    Immutable: every operation builds a new polynomial and nothing writes
    ``.c`` once it is made, so one object may be shared among the terms
    of an element and among elements."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        """The polynomial with coefficient ``coeffs[e]`` at $v^e$.  Every
        exponent and coefficient must be an integer that is not a bool
        (numpy integers count); anything else raises ``TypeError`` rather
        than being truncated."""
        self.c: dict[int, int] = {}
        if coeffs:
            for e, a in coeffs.items():
                if type(e) is not int or type(a) is not int:
                    if not (is_int(e) and is_int(a)):
                        raise TypeError("Laurent exponents and coefficients "
                                        f"are integers, not {e!r}: {a!r}")
                    e, a = int(e), int(a)
                if a:
                    self.c[e] = a

    # ---- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Laurent":
        return Laurent()

    @staticmethod
    def one() -> "Laurent":
        return Laurent({0: 1})

    @staticmethod
    def v(exp: int = 1) -> "Laurent":
        """The monomial v^exp."""
        return Laurent({exp: 1})

    @staticmethod
    def of_int(n: int) -> "Laurent":
        return Laurent({0: n})

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "Laurent":
        return Laurent({exp: coeff})

    # ---- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, exp: int) -> int:
        return self.c.get(exp, 0)

    def constant_term(self) -> int:
        return self.c.get(0, 0)

    def min_exp(self) -> int:
        """Smallest exponent with nonzero coefficient (0 for the zero poly)."""
        return min(self.c) if self.c else 0

    def only_even_exponents(self) -> bool:
        return all(e % 2 == 0 for e in self.c)

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for e in self.c)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.c.items()))

    # ---- ring operations ----------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.c)
        for e, a in other.c.items():
            s = out.get(e, 0) + a
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = Laurent()
        r.c = out
        return r

    def __neg__(self) -> "Laurent":
        r = Laurent()
        r.c = {e: -a for e, a in self.c.items()}
        return r

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent | int") -> "Laurent":
        """The product with a Laurent polynomial or with an integer that
        is not a bool (numpy integers count); anything else raises
        ``TypeError``."""
        if isinstance(other, Laurent):
            out: dict[int, int] = {}
            for e1, a1 in self.c.items():
                for e2, a2 in other.c.items():
                    e = e1 + e2
                    s = out.get(e, 0) + a1 * a2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            r = Laurent()
            r.c = out
            return r
        if not is_int(other):
            raise TypeError("a Laurent polynomial multiplies only Laurent "
                            f"polynomials and integers, not {other!r}")
        other = int(other)
        r = Laurent()
        if other:
            r.c = {e: a * other for e, a in self.c.items()}
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            if len(self.c) == 1:
                ((e, a),) = self.c.items()
                if a in (1, -1):
                    return Laurent({e * n: a if n % 2 else 1})
            raise ValueError("negative power of a non-unit Laurent polynomial")
        out = Laurent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "Laurent":
        """Multiply by v^k (shift every exponent by k)."""
        r = Laurent()
        r.c = {e + k: a for e, a in self.c.items()}
        return r

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if isinstance(other, Laurent):
            return self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        """A constant hashes as its integer, as ``==`` compares them."""
        if self.c.keys() <= {0}:
            return hash(self.c.get(0, 0))
        return hash(frozenset(self.c.items()))

    def __bool__(self) -> bool:
        return bool(self.c)

    def norm1(self) -> int:
        """The sum of the absolute values of the coefficients."""
        return sum(map(abs, self.c.values()))

    def pack(self, b: int, lo: int) -> int:
        """The value at $v = 2^b$ of $v^{-lo}$ times this polynomial, for
        ``lo`` at most its least exponent (Kronecker substitution): a ring
        map, under which $v^k$ acts as ``<< k * b``."""
        return sum(a << b * (e - lo) for e, a in self.c.items())

    @staticmethod
    def unpack(p: int, b: int, lo: int) -> "Laurent":
        """The inverse of :meth:`pack` on coefficients below $2^{b-1}$ in
        absolute value: the balanced base-$2^b$ digits of ``p``, a run of
        zero digits skipped in one shift by the trailing zero bits."""
        if b < 2:
            raise ValueError(f"slot width {b} holds no nonzero coefficient")
        r = Laurent()
        out = r.c
        mask, half = (1 << b) - 1, 1 << (b - 1)
        while p:
            if not p & mask:
                zeros = ((p & -p).bit_length() - 1) // b
                p >>= zeros * b
                lo += zeros
            p += half
            out[lo] = (p & mask) - half
            p >>= b
            lo += 1
        return r

    # ---- specialization ------------------------------------------------

    def at_v0(self) -> int:
        """Evaluate at v = 0.  Demands that no negative exponent is present."""
        if self.has_negative_exponents():
            raise NegativePowersPresent(f"cannot set v=0 in {self}")
        return self.constant_term()

    def evaluate(self, x):
        """Evaluate at an exact value x (Fraction or int; floats work too)."""
        if x == 0:
            return self.at_v0()
        total = x - x  # zero of the right type
        for e, a in self.c.items():
            total += a * x**e
        return total

    # ---- presentation ---------------------------------------------------

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e, a in sorted(self.c.items()):
            if e == 0:
                term = str(abs(a))
            else:
                mono = "v" if e == 1 else f"v^{e}"
                term = mono if abs(a) == 1 else f"{abs(a)}*{mono}"
            if not parts:
                parts.append(term if a > 0 else "-" + term)
            else:
                parts.append(("+ " if a > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Laurent({self.c!r})"

def q_power(d: int) -> Laurent:
    """The parameter v^(2d) attached to a node of weight d."""
    return Laurent({2 * d: 1})


class LaurentMatrix:
    """Matrices over Z[v, v^-1] as one integer tensor indexed by exponent.

    ``coeffs[..., k, i, j]`` is the coefficient of $v^{lo + k}$ in entry
    ``(i, j)``; leading axes stack matrices of one shape that share the
    degree origin ``lo``, and indexing a ``LaurentMatrix`` selects along
    them.  Arithmetic is exact: an operation runs on int64 when a bound on
    the magnitude of its result stays below $2^{63}$, and on Python ints
    (``object`` arrays) otherwise, so values never wrap; numpy computes on
    Python ints anyway once an operand holds them.  The bound is read from
    the coefficients (:meth:`magnitude`) each time it is needed.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs: np.ndarray):
        self.lo = lo
        self.coeffs = coeffs

    def magnitude(self) -> int:
        """The largest absolute value of a coefficient (0 when empty)."""
        c = self.coeffs
        return int(np.abs(c).max()) if c.size else 0

    @staticmethod
    def from_rows(mats) -> "LaurentMatrix":
        """Stack matrices given as nested rows of ``Laurent`` or ints."""
        terms = [(k, i, j, e, a)
                 for k, m in enumerate(mats)
                 for i, row in enumerate(m)
                 for j, x in enumerate(row)
                 for e, a in (x if isinstance(x, Laurent)
                              else Laurent.of_int(x)).c.items()]
        lo = min((t[3] for t in terms), default=0)
        hi = max((t[3] for t in terms), default=0)
        big = any(abs(t[4]) > _INT64_MAX for t in terms)
        shape = (len(mats), hi - lo + 1, len(mats[0]), len(mats[0][0]))
        coeffs = np.zeros(shape, dtype=object if big else np.int64)
        for k, i, j, e, a in terms:
            coeffs[k, e - lo, i, j] = a
        return LaurentMatrix(lo, coeffs)

    @staticmethod
    def concat(parts) -> "LaurentMatrix":
        """One stack of all the matrices of the stacks ``parts``, in order,
        along their first axis; the axes after it broadcast, a part with
        fewer of them taking the missing ones, of length one, right after
        its first axis."""
        lo = min(part.lo for part in parts)
        size = max(part.lo + part.coeffs.shape[-3] for part in parts) - lo
        arrays = [part._on_degrees(lo, size) for part in parts]
        ndim = max(a.ndim for a in arrays)
        arrays = [a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])
                  for a in arrays]
        shapes = {a.shape[1:] for a in arrays}
        if len(shapes) > 1:
            inner = np.broadcast_shapes(*shapes)
            arrays = [np.broadcast_to(a, a.shape[:1] + inner) for a in arrays]
        return LaurentMatrix(lo, np.concatenate(arrays))

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix(0, np.eye(n, dtype=np.int64)[None])

    def __len__(self) -> int:
        """The number of stacked matrices."""
        return len(self.coeffs)

    def __getitem__(self, index) -> "LaurentMatrix":
        return LaurentMatrix(self.lo, self.coeffs[index])

    def entry(self, *index: int) -> Laurent:
        """The polynomial at ``index``: stack indices, then row and column."""
        col = self.coeffs[index[:-2] + (slice(None),) + index[-2:]]
        return Laurent({self.lo + k: a for k, a in enumerate(col.tolist())})

    def _live(self) -> np.ndarray:
        """The degree slices that are nonzero in some stacked matrix."""
        c = self.coeffs
        return np.flatnonzero(c.any(axis=(*range(c.ndim - 3), -2, -1)))

    def trim(self) -> "LaurentMatrix":
        """Drop degree slices that are zero in every stacked matrix."""
        live = self._live()
        a, b = (live[0], live[-1] + 1) if live.size else (0, 1)
        return LaurentMatrix(self.lo + a, self.coeffs[..., a:b, :, :])

    def packed_along(self, words: np.ndarray) -> np.ndarray:
        """Every entry packed into one integer (:meth:`Laurent.pack`) from
        the least live degree of the stack, at a slot width that keeps
        exact the products of the stacked matrices along each row of
        ``words`` (see :meth:`FinModule.check_relations` for the bound):
        int64 while the products fit, Python ints beyond."""
        c, live, top = self.coeffs, self._live(), self.magnitude()
        n, width = c.shape[-1], words.shape[1]
        # entries of a product of k entrywise L1 norm matrices are at most
        # n^(k-1) times the k-th power of the largest norm, len(live) * top
        dtype = (object if (n * len(live) * top) ** width > _INT64_MAX
                 else np.int64)
        norms = sum(abs(c[..., k, :, :]).astype(dtype) for k in live)
        prod = norms[words[:, 0]]
        for column in words.T[1:]:
            prod = prod @ norms[column]
            top = max(top, int(prod.max()))
        b = top.bit_length() + 1
        dtype = (np.int64 if b * (width * (live[-1] - live[0]) + 1) < 63
                 else object)
        out = np.zeros(c.shape[:-3] + c.shape[-2:], dtype=dtype)
        for k in live:
            out += c[..., k, :, :].astype(dtype) << b * int(k - live[0])
        return out

    def _on_degrees(self, lo: int, size: int) -> np.ndarray:
        c = self.coeffs
        if self.lo == lo and c.shape[-3] == size:
            return c
        out = np.zeros(c.shape[:-3] + (size,) + c.shape[-2:], dtype=c.dtype)
        out[..., self.lo - lo:self.lo - lo + c.shape[-3], :, :] = c
        return out

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        lo = min(self.lo, other.lo)
        size = max(self.lo + self.coeffs.shape[-3],
                   other.lo + other.coeffs.shape[-3]) - lo
        a, b = self._on_degrees(lo, size), other._on_degrees(lo, size)
        if self.magnitude() + other.magnitude() > _INT64_MAX:
            a, b = a.astype(object), b.astype(object)
        return LaurentMatrix(lo, a + b)

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return self + LaurentMatrix(other.lo, -other.coeffs)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Matrix product, stacked matrices pairing up as in ``np.matmul``."""
        a, b = self.coeffs, other.coeffs
        da, db = a.shape[-3], b.shape[-3]
        bound = self.magnitude() * other.magnitude() * a.shape[-1]
        if bound * min(da, db) > _INT64_MAX:
            a, b = a.astype(object), b.astype(object)
        out = np.zeros(np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
                       + (da + db - 1, a.shape[-2], b.shape[-1]),
                       dtype=np.result_type(a, b))
        # out[d] collects a[i] @ b[d - i], one nonzero slice of the shorter
        # factor at a time, so one term of a stack is alive at once
        short = a if da <= db else b
        live = short.any(axis=(*range(short.ndim - 3), -2, -1))
        for k in np.flatnonzero(live):
            if da <= db:
                out[..., k:k + db, :, :] += a[..., k:k + 1, :, :] @ b
            else:
                out[..., k:k + da, :, :] += a @ b[..., k:k + 1, :, :]
        return LaurentMatrix(self.lo + other.lo, out)

    def at_v0(self) -> np.ndarray:
        """Values at v = 0, one integer matrix per stacked matrix; raises
        :class:`NegativePowersPresent` when an entry has a pole there."""
        c = self.coeffs
        if self.lo < 0 and c[..., :-self.lo, :, :].any():
            poles = c[..., :-self.lo, :, :].any(axis=-3)
            entry = self.entry(*np.argwhere(poles)[0].tolist())
            raise NegativePowersPresent(
                f"entry {entry} has negative powers of v")
        if 0 <= -self.lo < c.shape[-3]:
            return c[..., -self.lo, :, :]
        return np.zeros(c.shape[:-3] + c.shape[-2:], dtype=c.dtype)

    def reduce(self, p: int) -> "LaurentMatrix":
        """The values at v = 0 read mod ``p``, as a one-slice tensor."""
        return LaurentMatrix(0, self.at_v0()[..., None, :, :] % p)


def mod_p(a: np.ndarray, p: int) -> np.ndarray:
    """The integer matrices ``a`` read mod ``p`` into $[0, p)$, on the
    dtype that keeps a product of two of them exact: int64 while
    $(p - 1)^2 n < 2^{63}$ for $n \\times n$ matrices, Python ints
    (``object``) beyond.  Reduce each product mod ``p`` again."""
    big = (p - 1) ** 2 * a.shape[-1] > _INT64_MAX
    return (a % p).astype(object if big else np.int64)
