r"""Root data with a fixed integer coordinate frame.

Roots live in simple-root coordinates and coweights in fundamental-coweight
coordinates, so everything is an integer vector and the natural pairing is
a dot product:

* a root $\beta = \sum_i n_i \alpha_i$ is the tuple $(n_1, \dots, n_\ell)$;
* a coweight $\lambda$ is the tuple $(c_1, \dots, c_\ell)$ with
  $c_i = \langle \alpha_i, \lambda \rangle$;
* $\langle \beta, \lambda \rangle = \sum_i n_i c_i$.

In this frame $\alpha_i$ is the $i$-th unit vector, the coweight lattice is
$\mathbb{Z}^\ell$, and the simple coroot $\alpha_i^\vee$ is row $i$ of the
Cartan matrix, whose entry convention is
``cartan[i][j]`` $= \langle \alpha_j, \alpha_i^\vee \rangle$.

Nodes of the affine diagram carry labels $0, 1, \dots, \ell$ with $0$ the
affine node and finite nodes numbered as in Bourbaki.  Coordinate index
$k$ corresponds to finite node $k + 1$ throughout.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from . import intlin
from .errors import (
    DecorationNotClassConstant,
    HilbertBasisOverflow,
    InvalidRank,
    LatticeNotIntermediate,
    WeightTooLarge,
)

Vec = tuple[int, ...]

# Node weights are refused above this bound: a module matrix stores
# 2 * max(weight) + 1 degree slices, so time and memory grow linearly with
# the largest weight (at the bound, C2 [1, 10^4, 10^4] answers `classify`
# in about a second and 92 MB on a 2 vCPU box).
MAX_WEIGHT = 10_000

# Rows per chunk of the (points, positive roots) class-count arrays.
CLASS_COUNT_ROWS = 1 << 14

# Candidate points refused by dominant_monoid_generators above this bound.
MAX_BOX = 2_000_000

# Coxeter bond m(s,t) stored as an int; this sentinel means an infinite bond
# (it occurs only in the affine diagram of rank one).
INFINITE_BOND = -1

_POS_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def cartan_matrix(kind: str, rank: int) -> tuple[Vec, ...]:
    """The rank x rank Cartan matrix with rows indexed by coroots.

    >>> cartan_matrix("C", 2)
    ((2, -2), (-1, 2))
    >>> cartan_matrix("G", 2)
    ((2, -3), (-1, 2))
    """
    kind = kind.upper()
    bounds = {"A": 1, "B": 2, "C": 2, "D": 3}
    if kind in bounds:
        if rank < bounds[kind] or rank > 8:
            raise InvalidRank(f"{kind}_{rank} is not supported (rank must be "
                              f"{bounds[kind]}..8)")
    elif kind == "E":
        if rank not in (6, 7, 8):
            raise InvalidRank(f"E_{rank} does not exist")
    elif kind == "F":
        if rank != 4:
            raise InvalidRank(f"F_{rank} does not exist")
    elif kind == "G":
        if rank != 2:
            raise InvalidRank(f"G_{rank} does not exist")
    else:
        raise InvalidRank(f"unknown Cartan type {kind!r}")

    m = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int) -> None:
        m[i][j] = -1
        m[j][i] = -1

    if kind in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if kind == "B" and rank >= 2:
            m[rank - 1][rank - 2] = -2
        if kind == "C" and rank >= 2:
            m[rank - 2][rank - 1] = -2
    elif kind == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif kind == "E":
        for a, b in ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
            if b <= rank:
                bond(a - 1, b - 1)
    elif kind == "F":
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    elif kind == "G":
        return ((2, -3), (-1, 2))
    return tuple(tuple(row) for row in m)


def reflect_coweight(cartan: Sequence[Vec], s: int, c: Sequence[int]) -> Vec:
    """Apply the simple reflection at finite node ``s`` (label 1..rank)."""
    i = s - 1
    ci = c[i]
    return tuple(c[j] - ci * cartan[i][j] for j in range(len(c)))

def reflect_root(cartan: Sequence[Vec], s: int, n: Sequence[int]) -> Vec:
    """Same reflection in simple-root coordinates."""
    i = s - 1
    pair = sum(cartan[i][j] * n[j] for j in range(len(n)))
    out = list(n)
    out[i] -= pair
    return tuple(out)


def _bond_from_product(n: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}.get(n, INFINITE_BOND)


class RootDatum:
    """An irreducible affine root datum with node weights and a lattice.

    Instances are built by :func:`build_root_datum` and treated as
    immutable.  ``weights[i]`` is the weight of affine node ``i``; weights
    are constant on conjugacy classes of simple affine reflections by
    construction.
    """

    def __init__(self, kind: str, rank: int, cartan: tuple[Vec, ...],
                 weights: Vec, lattice_name: str,
                 lattice_basis: tuple[Vec, ...]):
        self.kind = kind
        self.rank = rank
        self.cartan = cartan
        self.weights = weights
        self.lattice_name = lattice_name
        self.lattice_basis = lattice_basis

        self.pos_roots = self._close_roots()
        assert len(self.pos_roots) == _POS_ROOT_COUNT[kind](rank)
        self.theta, self.theta_coroot = self._highest_root()
        self.coroot_basis = intlin.echelon_basis(cartan, rank)
        self.affine_cartan = a = self._affine_cartan()
        self.coxeter_m = tuple(
            tuple(1 if i == j else _bond_from_product(a[i][j] * a[j][i])
                  for j in range(rank + 1)) for i in range(rank + 1))
        self.classes = self._conjugacy_classes()
        self.class_of_node = {
            s: k for k, cls in enumerate(self.classes) for s in cls
        }
        self.class_weights = tuple(
            self.weights[cls[0]] for cls in self.classes
        )
        self.lattice_index = abs(intlin.det(lattice_basis))
        # node -> its simple reflection, filled by
        # ExtWeylElt.simple_reflection
        self.simple_reflections: dict = {}

    # ---- basic frame -------------------------------------------------

    def simple_root(self, s: int) -> Vec:
        return tuple(int(j == s - 1) for j in range(self.rank))

    def simple_coroot(self, s: int) -> Vec:
        return self.cartan[s - 1]

    @staticmethod
    def pairing(root: Sequence[int], coweight: Sequence[int]) -> int:
        return sum(n * c for n, c in zip(root, coweight))

    def weight(self, node: int) -> int:
        return self.weights[node]

    def is_dominant(self, c: Sequence[int]) -> bool:
        return all(x >= 0 for x in c)

    # ---- lattice -----------------------------------------------------

    def in_lattice(self, c: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.lattice_basis, c)

    def in_coroot_lattice(self, c: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.coroot_basis, c)

    def coset_mod_coroots(self, c: Sequence[int]) -> Vec:
        """Canonical representative of ``c`` modulo the coroot lattice."""
        return intlin.reduce_mod_lattice(self.coroot_basis, c)

    def lattice_cosets(self) -> tuple[Vec, ...]:
        """Canonical representatives of lattice / coroot-lattice cosets."""
        seen = {self.coset_mod_coroots((0,) * self.rank)}
        frontier = list(seen)
        gens = [g for g in self.lattice_basis]
        gens += [tuple(-x for x in g) for g in self.lattice_basis]
        while frontier:
            nxt = []
            for c in frontier:
                for g in gens:
                    d = self.coset_mod_coroots(
                        tuple(a + b for a, b in zip(c, g)))
                    if d not in seen:
                        seen.add(d)
                        nxt.append(d)
            frontier = nxt
        return tuple(sorted(seen))

    # ---- Weyl group on coweights ---------------------------------------

    def reflect(self, s: int, c: Sequence[int]) -> Vec:
        return reflect_coweight(self.cartan, s, c)

    def weyl_orbit(self, c: Sequence[int]) -> tuple[Vec, ...]:
        """The full (finite) Weyl orbit of a coweight, sorted."""
        start = tuple(c)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for s in range(1, self.rank + 1):
                    y = self.reflect(s, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def translation_class_counts(self, lam) -> np.ndarray:
        """Letters of each class of :attr:`classes` in a reduced word of
        the translation by ``lam``, counted by hyperplane (Iwahori and
        Matsumoto, Publ. IHES 25 (1965); Macdonald, *Affine Hecke
        algebras and orthogonal polynomials* (2003), section 2); a stack
        of points gives a stack of counts.

        With $m = \\langle \\alpha, \\lambda \\rangle$ for a positive root
        $\\alpha$, the word crosses $H_{\\alpha,k}$ for $k = 0..m-1$ when
        $m > 0$ and $k = m..-1$ when $m < 0$.  Even $k$ count for the
        class of the finite simple node in the Weyl orbit of $\\alpha$.
        Odd $k$ count for the class of node 0 when
        $\\langle \\alpha, Q^\\vee \\rangle$ lies in $2\\mathbb{Z}$ (the
        long roots of affine $C_n$, the root of affine $A_1$), and for
        that finite class otherwise."""
        lam = np.asarray(lam, dtype=np.int64)
        rows, n = lam.reshape(-1, lam.shape[-1]), CLASS_COUNT_ROWS
        out = np.empty((len(rows), len(self.classes)), dtype=np.int64)
        for i in range(0, len(rows), n):
            out[i:i + n] = self.hyperplane_class_counts(
                rows[i:i + n] @ self._hyperplane_classes[0])
        return out.reshape(lam.shape[:-1] + out.shape[1:])

    def hyperplane_class_counts(self, m) -> np.ndarray:
        """Per class, the hyperplanes $H_{\\alpha,k}$, $k = 0..m-1$ or
        $m..-1$, over the positive roots $\\alpha$ with stacked pairings m."""
        _, even, odd = self._hyperplane_classes
        n_odd = (np.abs(m) + (m < 0)) // 2
        return (np.abs(m) - n_odd) @ even + n_odd @ odd

    def translation_weighted_length(self, lam: Sequence[int]) -> int:
        """Node weights summed over a reduced word of the translation by
        ``lam``: :meth:`translation_class_counts` times the class
        weights."""
        return int(self.translation_class_counts(lam) @ self.class_weights)

    @functools.cached_property
    def _hyperplane_classes(self):
        """Positive roots as columns and the int64 one-hot (root, class)
        tables of their even and odd hyperplanes for
        :meth:`translation_class_counts`."""
        even, odd = [], []
        for root, _ in self.pos_roots:
            beta = root  # descend to a simple root of the same Weyl orbit
            while sum(beta) > 1:
                i = next(i for i, cov in enumerate(self.cartan)
                         if self.pairing(beta, cov) > 0)
                beta = reflect_root(self.cartan, i + 1, beta)
            even.append(self.class_of_node[beta.index(1) + 1])
            two = all(self.pairing(root, cov) % 2 == 0 for cov in self.cartan)
            odd.append(self.class_of_node[0] if two else even[-1])
        one_hot = np.eye(len(self.classes), dtype=np.int64)
        return (np.array([r for r, _ in self.pos_roots], dtype=np.int64).T,
                one_hot[even], one_hot[odd])

    @functools.cached_property
    def node_supports(self):
        """Nonzero (index, entry) pairs of each affine node's coroot and
        root (theta_coroot, theta at 0; cartan[s - 1], e_(s-1) at s)."""
        def nonzero(v):
            return tuple((k, x) for k, x in enumerate(v) if x)
        return tuple((nonzero(cov), nonzero(root)) for cov, root in zip(
            (self.theta_coroot,) + self.cartan,
            (self.theta,) + intlin.identity(self.rank)))

    def dominant_rep(self, c: Sequence[int]) -> Vec:
        """The unique dominant coweight in the Weyl orbit of ``c``."""
        cur = tuple(c)
        while True:
            s = next((i for i in range(1, self.rank + 1)
                      if cur[i - 1] < 0), None)
            if s is None:
                return cur
            cur = self.reflect(s, cur)

    # ---- derivation helpers --------------------------------------------

    def _close_roots(self) -> tuple[tuple[Vec, Vec], ...]:
        """All positive roots as (root coords, coroot coweight coords).

        Closes the simple roots under simple reflections, skipping images
        with a negative coordinate: every positive root is reached from a
        simple root through positive roots of rising height."""
        rank, cartan = self.rank, self.cartan
        seen: dict[Vec, Vec] = {}
        frontier: list[tuple[Vec, Vec]] = []
        for s in range(1, rank + 1):
            r = tuple(int(j == s - 1) for j in range(rank))
            seen[r] = cartan[s - 1]
            frontier.append((r, cartan[s - 1]))
        while frontier:
            nxt = []
            for root, cov in frontier:
                for s in range(1, rank + 1):
                    r2 = reflect_root(cartan, s, root)
                    if r2 not in seen and min(r2) >= 0:
                        c2 = reflect_coweight(cartan, s, cov)
                        seen[r2] = c2
                        nxt.append((r2, c2))
            frontier = nxt
        return tuple(sorted(seen.items()))

    def _highest_root(self) -> tuple[Vec, Vec]:
        best = None
        for root, cov in self.pos_roots:
            if all(self.pairing(root, self.cartan[i]) >= 0
                   for i in range(self.rank)):
                if best is None or sum(root) > sum(best[0]):
                    best = (root, cov)
        assert best is not None
        return best

    def _affine_gradient(self, i: int) -> Vec:
        """Root part of the affine simple root at node ``i``."""
        if i == 0:
            return tuple(-x for x in self.theta)
        return self.simple_root(i)

    def _affine_cartan(self) -> tuple[Vec, ...]:
        """Pairings <a_j, a_i-coroot> for affine node labels i, j."""
        n = self.rank + 1
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            cov = (tuple(-x for x in self.theta_coroot) if i == 0
                   else self.simple_coroot(i))
            for j in range(n):
                grad = self._affine_gradient(j)
                out[i][j] = 2 if i == j else self.pairing(grad, cov)
        return tuple(tuple(r) for r in out)

    def _conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes of affine simple reflections.

        Two simple reflections are conjugate exactly when the diagram
        connects them by a path of odd bonds.  Classes come back sorted by
        decreasing size, then classes without node 0 first, then by the
        smallest node label.
        """
        n = self.rank + 1
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                m = self.coxeter_m[i][j]
                if m > 0 and m % 2 == 1:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        classes = [tuple(sorted(g)) for g in groups.values()]
        classes.sort(key=lambda cls: (-len(cls), int(0 in cls), cls[0]))
        return tuple(classes)

    # ---- presentation ---------------------------------------------------

    def label(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        d = ",".join(str(x) for x in self.class_weights)
        return (f"RootDatum({self.label()}, weights=({d}), "
                f"lattice={self.lattice_name})")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "rank": self.rank,
            "weights": list(self.class_weights),
            "lattice": (self.lattice_name if self.lattice_name != "custom"
                        else [list(r) for r in self.lattice_basis]),
        }


def _is_int(x) -> bool:
    """An integer that is not a bool (numpy integers count)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _normalize_weights(datum_classes: tuple[tuple[int, ...], ...],
                       rank: int, weights) -> Vec:
    """Resolve the weight argument to a per-affine-node tuple."""
    n = rank + 1
    if isinstance(weights, (numbers.Number, str, bytes)):
        if not _is_int(weights):
            raise DecorationNotClassConstant(
                f"weights must be integers, got {weights!r}")
        weights = (weights,) * len(datum_classes)
    if isinstance(weights, Mapping):
        per_node = dict(weights)
        if (not all(_is_int(k) for k in per_node)
                or sorted(per_node) != list(range(n))):
            raise DecorationNotClassConstant(
                f"per-node weights must cover nodes 0..{rank}")
        out = [per_node[i] for i in range(n)]
    else:
        vals = list(weights)
        if len(vals) != len(datum_classes):
            raise DecorationNotClassConstant(
                f"expected one weight per class "
                f"({len(datum_classes)} classes), got {len(vals)}")
        out = [0] * n
        for val, cls in zip(vals, datum_classes):
            for s in cls:
                out[s] = val
    if not all(_is_int(x) for x in out):
        raise DecorationNotClassConstant(
            f"weights must be integers, got {out!r}")
    out = [int(x) for x in out]
    if any(x < 1 for x in out):
        raise DecorationNotClassConstant("weights must be positive")
    if max(out) > MAX_WEIGHT:
        raise WeightTooLarge(f"node weight {max(out)} exceeds the bound "
                             f"{MAX_WEIGHT} on node weights")
    for cls in datum_classes:
        if len({out[s] for s in cls}) != 1:
            raise DecorationNotClassConstant(
                f"nodes {cls} are conjugate but got weights "
                f"{[out[s] for s in cls]}")
    return tuple(out)


@functools.cache
def _bare_datum(kind: str, rank: int) -> RootDatum:
    """Weight-1, full-lattice datum used to derive classes once per type."""
    cartan = cartan_matrix(kind, rank)
    return RootDatum(kind, rank, cartan, (1,) * (rank + 1), "coweight",
                     intlin.identity(rank))


def build_root_datum(kind: str, rank: int, weights=1,
                     lattice="coweight") -> RootDatum:
    """Construct a validated root datum.

    ``weights`` is an int (all nodes equal), a sequence with one entry per
    conjugacy class in canonical class order, or a mapping from affine node
    labels to values.  ``lattice`` is ``"coweight"``, ``"coroot"``, or an
    explicit list of integer coweight vectors generating an intermediate
    lattice.

    >>> d = build_root_datum("C", 2, weights=(2, 1, 1))
    >>> d.classes
    ((1,), (2,), (0,))
    >>> d.weights
    (1, 2, 1)
    """
    if not _is_int(rank):
        raise InvalidRank(f"rank must be an integer, got {rank!r}")
    kind, rank = kind.upper(), int(rank)
    base = _bare_datum(kind, rank)
    w = _normalize_weights(base.classes, rank, weights)

    if lattice == "coweight":
        name, basis = "coweight", intlin.identity(rank)
    elif lattice == "coroot":
        name, basis = "coroot", intlin.echelon_basis(base.cartan, rank)
    else:
        rows = [tuple(row) for row in lattice]
        if not all(_is_int(x) for r in rows for x in r):
            raise LatticeNotIntermediate(
                f"lattice generators must have integer entries, got {rows!r}")
        rows = [tuple(int(x) for x in r) for r in rows]
        if any(len(r) != rank for r in rows):
            raise LatticeNotIntermediate(
                f"lattice generators must have length {rank}")
        basis = intlin.echelon_basis(rows, rank)
        if len(basis) != rank:
            raise LatticeNotIntermediate("lattice does not have full rank")
        for row in base.cartan:
            if not intlin.in_row_lattice(basis, row):
                raise LatticeNotIntermediate(
                    "lattice does not contain the coroot lattice")
        name = "custom"
    return RootDatum(kind, rank, base.cartan, w, name, basis)


def dominant_monoid_generators(datum: RootDatum,
                               lattice="lattice") -> tuple[Vec, ...]:
    """Hilbert basis of the monoid of dominant lattice points, sorted.

    ``lattice`` selects which lattice to use: ``"lattice"`` for the datum's
    own, ``"coroot"`` for the coroot lattice, or an explicit echelon basis
    (a sequence of coweight vectors).

    Dominant coweights are the lattice points of the nonnegative orthant,
    a simplicial cone whose rays are $a_i e_i$ with $a_i$ the least
    positive multiple of $e_i$ in the lattice.  Every dominant lattice
    point is a ray combination plus a point of the half-open parallelepiped
    $\\prod_i [0, a_i)$, whose lattice points form one set of
    representatives of $L / \\bigoplus_i a_i \\mathbb{Z} e_i$ and are
    enumerated from the echelon basis.  The rays always belong to the
    Hilbert basis; a nonzero parallelepiped point belongs to it exactly
    when it dominates no other nonzero lattice point, which a reduction in
    degree order decides against the generators found so far (Bruns and
    Ichim, *Normaliz: algorithms for affine monoids and rational cones*,
    J. Algebra 324 (2010)).  More than :data:`MAX_BOX` candidates, the
    nonzero parallelepiped points plus the rays, raise
    :class:`HilbertBasisOverflow` before any is built.

    >>> d = build_root_datum("C", 2)
    >>> dominant_monoid_generators(d, "coroot")
    ((0, 2), (1, 0))
    """
    rank = datum.rank
    if lattice == "coroot":
        basis = datum.coroot_basis
    elif lattice == "lattice":
        basis = datum.lattice_basis
    elif isinstance(lattice, str):
        raise ValueError(f"unknown lattice selector {lattice!r}")
    else:
        basis = intlin.echelon_basis([tuple(r) for r in lattice], rank)
        if len(basis) != rank:
            raise ValueError("explicit lattice basis must have full rank")
    # the echelon pivot of row i divides a_i
    rays = intlin.lattice_rays(basis)
    steps = [a // row[i] for i, (a, row) in enumerate(zip(rays, basis))]
    count = math.prod(steps) - 1 + rank
    if count > MAX_BOX:
        raise HilbertBasisOverflow(
            f"{count} candidate points exceed MAX_BOX={MAX_BOX}")

    # sum_j c_j b_j mod a with 0 <= c_j < a_j / pivot_j runs once through
    # the lattice points of the half-open parallelepiped
    mod = np.array(rays, dtype=np.int64)
    points = np.zeros((1, rank), dtype=np.int64)
    for row, m in zip(basis, steps):
        shifts = np.arange(m, dtype=np.int64)[:, None] * (np.array(row) % mod)
        points = ((shifts[:, None, :] + points[None, :, :]) % mod
                  ).reshape(-1, rank)
    points = points[points.any(axis=1)]
    points = points[np.argsort(points.sum(axis=1), kind="stable")]
    gens = [tuple(a * int(i == j) for j in range(rank))
            for i, a in enumerate(rays)]
    while len(points):
        # the first point left has least degree: a nonzero lattice point
        # strictly below it would be a generator, or dominate one, and
        # would have removed it; every point that dominates it goes
        low = points[0]
        gens.append(tuple(int(x) for x in low))
        points = points[(points < low).any(axis=1)]
    return tuple(sorted(gens))
