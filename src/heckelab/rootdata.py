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
import itertools
import math
import numbers
import types
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from . import intlin
from .errors import (
    DecorationNotClassConstant,
    HilbertBasisOverflow,
    InvalidRank,
    LatticeNotIntermediate,
    NotAFullOrbit,
    WeightTooLarge,
)

Vec = tuple[int, ...]

# Node weights are refused above this bound: a module matrix stores
# 2 * max(weight) + 1 degree slices, so time and memory grow linearly with
# the largest weight (at the bound, C2 [1, 10^4, 10^4] answers `classify`
# in a fresh interpreter in about 0.3 s wall at a peak RSS of 39 MB on a
# 2 vCPU box).
MAX_WEIGHT = 10_000

# Rows per chunk of the (points, positive roots) class-count arrays.
CLASS_COUNT_ROWS = 1 << 14

# Candidate points refused by dominant_monoid_generators above this bound.
MAX_BOX = 2_000_000

# Coxeter bond m(s,t) stored as an int; this sentinel means an infinite bond
# (it occurs only in the affine diagram of rank one).
INFINITE_BOND = -1


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


@functools.cache
def _type_frame(kind: str, rank: int) -> Mapping:
    """The frame of the type (kind, rank): every attribute of a
    :class:`RootDatum` that depends on the type alone, by name, in one
    read-only mapping built once per type and shared by its data.
    ``_coweight_cosets`` lists the canonical representatives of the
    coweight lattice modulo the coroot lattice, sorted: the echelon
    coroot basis is square and triangular with positive pivots $p_i$, so
    they are the points of $\\prod_i [0, p_i)$.

    No key can be rebound.  The only mutable values are three tables the
    type's data fill as they go, each entry built once and kept
    read-only: ``_orbits``, the Weyl orbit of each dominant point
    (:meth:`RootDatum.weyl_orbit`); ``_omega_frames``, the weight-free
    parts of the length-zero group of each lattice basis
    (:func:`heckelab.extweyl._omega_frame`); and ``_level_generators``,
    the :class:`_LevelTables` of each level basis
    (:meth:`heckelab.hecke.HeckeAlgebra.monoid_generators`)."""
    cartan = cartan_matrix(kind, rank)
    pos_roots, origins = _close_roots(cartan)
    # the highest root is the unique positive root of greatest height
    theta, theta_coroot = max(pos_roots, key=lambda rc: sum(rc[0]))
    coroot_basis = intlin.echelon_basis(cartan, rank)
    a = _affine_cartan(cartan, theta, theta_coroot)
    # the bond m(i, j) read off the product a_ij a_ji of Cartan entries
    coxeter_m = tuple(tuple(
        1 if i == j else {0: 2, 1: 3, 2: 4, 3: 6}.get(x * y, INFINITE_BOND)
        for j, (x, y) in enumerate(zip(row, col)))
        for i, (row, col) in enumerate(zip(a, zip(*a))))
    classes = _conjugacy_classes(coxeter_m)

    def nonzero(v):
        return tuple((k, x) for k, x in enumerate(v) if x)

    v0 = tuple(range(2, rank + 2))
    return types.MappingProxyType(dict(
        kind=kind, rank=rank, cartan=cartan, pos_roots=pos_roots,
        theta=theta, theta_coroot=theta_coroot, coroot_basis=coroot_basis,
        affine_cartan=a, coxeter_m=coxeter_m, classes=classes,
        class_of_node=types.MappingProxyType(
            {s: k for k, cls in enumerate(classes) for s in cls}),
        _hyperplane_classes=_hyperplane_tables(cartan, pos_roots, origins,
                                               classes),
        # nonzero (index, entry) pairs of each affine node's coroot and
        # root (theta_coroot, theta at 0; cartan[s - 1], e_(s-1) at s)
        node_supports=tuple((nonzero(cov), nonzero(root)) for cov, root in zip(
            (theta_coroot,) + cartan, (theta,) + intlin.identity(rank))),
        # (v0, D) with x_0 = v0 / D a point of the base alcove where the
        # simple affine roots take the pairwise distinct values c_i / D,
        # c_i = i + 1: v0 = (c_1, ..., c_l) and D = c_0 + <theta, v0>
        alcove_point=(v0, 1 + sum(map(mul, theta, v0))),
        _coweight_cosets=tuple(itertools.product(
            *(range(row[i]) for i, row in enumerate(coroot_basis)))),
        _height_sum=sum(sum(root) for root, _ in pos_roots),
        _orbits={}, _omega_frames={}, _level_generators={}))


def _close_roots(cartan: tuple[Vec, ...]
                 ) -> tuple[tuple[tuple[Vec, Vec], ...], tuple[int, ...]]:
    """All positive roots as (root coords, coroot coweight coords), sorted,
    and beside them the coordinate index of the simple root each was
    reached from, so a simple root of its Weyl orbit.

    Closes the simple roots under the simple reflections that raise them,
    which reach every positive root (Bourbaki, *Lie* VI, section 1.5).
    Each root carries its pairings $p_j = \\langle \\beta,
    \\alpha_j^\\vee \\rangle$ with the simple coroots: $s_i$ raises
    $\\beta$ exactly when $p_i < 0$, to $\\beta - p_i \\alpha_i$, whose
    pairings are $p - p_i c_i$ for $c_i$ those of $\\alpha_i$, column $i$
    of the Cartan matrix, so only those images are built."""
    cols = tuple(zip(*cartan))
    frontier = [(root, cov, pairs, i) for i, (root, cov, pairs) in enumerate(
        zip(intlin.identity(len(cartan)), cartan, cols))]
    seen = {root: (cov, i) for root, cov, _, i in frontier}
    while frontier:
        nxt = []
        for root, cov, pairs, origin in frontier:
            for i, p in enumerate(pairs):
                if p < 0:
                    r2 = root[:i] + (root[i] - p,) + root[i + 1:]
                    if r2 not in seen:
                        ci = cov[i]
                        c2 = tuple([x - ci * a
                                    for x, a in zip(cov, cartan[i])])
                        seen[r2] = c2, origin
                        nxt.append((r2, c2, tuple(
                            [x - p * a for x, a in zip(pairs, cols[i])]),
                            origin))
        frontier = nxt
    closed = sorted(seen.items())
    return (tuple((root, cov) for root, (cov, _) in closed),
            tuple(origin for _, (_, origin) in closed))


def _affine_cartan(cartan: tuple[Vec, ...], theta: Vec,
                   theta_coroot: Vec) -> tuple[Vec, ...]:
    """Pairings <a_j, a_i-coroot> for affine node labels i, j: node 0
    has the root part -theta and the coroot -theta_coroot, so row 0 is
    -theta_coroot, column 0 the pairings of -theta and the rest is
    ``cartan``."""
    return (((2,) + tuple(-x for x in theta_coroot),)
            + tuple((-sum(map(mul, row, theta)),) + row for row in cartan))


def _conjugacy_classes(coxeter_m: tuple[Vec, ...]
                       ) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of affine simple reflections.

    Two simple reflections are conjugate exactly when the diagram
    connects them by a path of odd bonds.  Classes come back sorted by
    decreasing size, then classes without node 0 first, then by the
    smallest node label.
    """
    n = len(coxeter_m)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            m = coxeter_m[i][j]
            if m > 0 and m % 2 == 1:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = [tuple(sorted(g)) for g in groups.values()]
    classes.sort(key=lambda cls: (-len(cls), int(0 in cls), cls[0]))
    return tuple(classes)


def _hyperplane_tables(cartan: tuple[Vec, ...], pos_roots, origins,
                       classes):
    """Positive roots as columns and the read-only int64 one-hot (root,
    class) tables of their even and odd hyperplanes for
    :meth:`RootDatum.translation_class_counts`.  The even class of a root
    is the class of the simple root :func:`_close_roots` reached it from
    (``origins``, coordinate indices), a simple root of its Weyl orbit."""
    roots = np.array([r for r, _ in pos_roots], dtype=np.int64)
    node = np.empty(len(cartan) + 1, dtype=np.int64)
    for k, cls in enumerate(classes):
        node[list(cls)] = k
    even = node[1:][list(origins)]
    two = ~((roots @ np.array(cartan, dtype=np.int64).T) % 2).any(axis=1)
    odd = np.where(two, node[0], even)
    one_hot = np.eye(len(classes), dtype=np.int64)
    tables = roots.T, one_hot[even], one_hot[odd]
    for t in tables:
        t.flags.writeable = False
    return tables


class _LevelTables:
    """What the certificate and the discreteness test read per level
    lattice, a function of its echelon basis ``basis`` alone, built once
    per basis and kept in the frame's ``_level_generators``: the dominant
    monoid ``generators`` and their letter ``counts`` per node class
    (:meth:`RootDatum.translation_class_counts`), then, on the first
    read, which only the certificate makes, their ``coords`` in the basis
    (:func:`intlin.lattice_coordinates`); ``det``, the product of the
    basis's pivots, and ``inverse``, $\\det B \\cdot B^{-1}$, the
    coordinates of $\\det B \\cdot I$; ``reach``,
    :func:`intlin.lattice_reach` of the basis; and one solve setup per
    modulus (:meth:`solver`).  The arrays are read-only."""

    def __init__(self, datum: "RootDatum", basis: tuple[Vec, ...],
                 generators: tuple[Vec, ...]):
        self.basis = basis
        self.generators = generators
        self.counts = _read_only(datum.translation_class_counts(
            np.array(generators, dtype=np.int64)))
        self._solvers: dict[int, np.ndarray] = {}

    @functools.cached_property
    def coords(self) -> np.ndarray:
        return _read_only(intlin.lattice_coordinates(
            self.basis, np.array(self.generators, dtype=np.int64))[0])

    @functools.cached_property
    def det(self) -> int:
        return math.prod(row[i] for i, row in enumerate(self.basis))

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        return _read_only(intlin.lattice_coordinates(
            self.basis, self.det * np.eye(len(self.basis), dtype=np.int64))[0])

    @functools.cached_property
    def reach(self) -> int:
        return intlin.lattice_reach(self.basis)

    def solver(self, q: int) -> np.ndarray:
        """A left inverse $X$ of ``coords`` over $F_q$, $q$ prime, as a
        read-only (rank, generators) int64 matrix with entries in
        $[0, q)$, built on the first request for ``q``: Gauss-Jordan
        elimination of [``coords`` | I] turns ``coords`` into
        $[I; 0]$, since the generators span the lattice and so
        ``coords`` has full column rank over every field, and $X$ is the
        first rank rows of the identity's image.  When ``coords`` $x = b$
        has a solution, it is $X b$."""
        left = self._solvers.get(q)
        if left is None:
            rank, n = len(self.basis), len(self.generators)
            a = [[x % q for x in row] + [int(i == j) for j in range(n)]
                 for i, row in enumerate(self.coords.tolist())]
            intlin._gauss_jordan(a, rank, q)
            left = self._solvers[q] = _read_only(np.array(
                [row[rank:] for row in a[:rank]], dtype=np.int64))
        return left


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


class RootDatum:
    """An irreducible affine root datum with node weights and a lattice.

    Instances are built by :func:`build_root_datum` and treated as
    immutable.  What a datum holds comes in three layers:

    * per type (kind, rank), its *frame* (:func:`_type_frame`):
      ``cartan``, ``pos_roots``, ``theta``, ``theta_coroot``,
      ``coroot_basis``, ``affine_cartan``, ``coxeter_m``, ``classes``,
      ``class_of_node``, ``node_supports``, ``alcove_point``, the
      hyperplane tables of :meth:`translation_class_counts` and the
      tables the type's data fill as they go.  The frame is built once
      per type and process and shared, by identity, by every datum of
      the type;
    * per lattice: ``lattice_name``, ``lattice_basis``, ``lattice_index``
      and :meth:`lattice_cosets`;
    * per datum: ``weights`` (``weights[i]`` is the weight of affine node
      ``i``, constant on conjugacy classes of simple affine reflections
      by construction), ``class_weights`` and ``length_zero_group``, the
      binding of those parts to the datum: elements of this datum
      alone.
    """

    def __init__(self, kind: str, rank: int, weights: Vec, lattice_name: str,
                 lattice_basis: tuple[Vec, ...]):
        vars(self).update(_type_frame(kind, rank))
        self.weights = weights
        self.lattice_name = lattice_name
        self.lattice_basis = lattice_basis
        self.class_weights = tuple(weights[cls[0]] for cls in self.classes)
        # the basis is square and upper triangular with positive pivots
        self.lattice_index = math.prod(
            row[i] for i, row in enumerate(lattice_basis))
        # the letters of a translation, over all classes, are at most the
        # sum of |<alpha, lam>| over the positive roots alpha, so at most
        # the sum of their heights times the largest |coordinate|
        self._translation_reach = (2**63 - 1) // (
            max(self.class_weights) * self._height_sum)
        # the group of length-zero elements, bound by extweyl.aut_group
        self.length_zero_group = None

    # ---- basic frame -------------------------------------------------

    def simple_root(self, s: int) -> Vec:
        return tuple(int(j == s - 1) for j in range(self.rank))

    # ---- lattice -----------------------------------------------------

    def in_lattice(self, c: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.lattice_basis, c)

    def in_coroot_lattice(self, c: Sequence[int]) -> bool:
        return intlin.in_row_lattice(self.coroot_basis, c)

    def lattice_cosets(self) -> tuple[Vec, ...]:
        """Canonical representatives of lattice / coroot-lattice cosets,
        sorted: the coweight cosets of the frame that lie in the lattice
        (the lattice holds the coroots, so a coset lies in it or misses
        it whole)."""
        return tuple(c for c in self._coweight_cosets if self.in_lattice(c))

    # ---- Weyl group on coweights ---------------------------------------

    def point_stack(self, lam) -> np.ndarray:
        """``lam``, a point or an (N, rank) stack, as an (N, rank) int64
        stack: ``ValueError`` for a point of another length, ``TypeError``
        for a coordinate that is not an integer (floats, bools) and
        ``OverflowError`` past int64."""
        rank = self.rank
        try:
            pts = np.asarray(lam, dtype=np.int64)
        except ValueError:
            pts = None
        if pts is None or pts.ndim not in (1, 2) or pts.shape[-1] != rank:
            raise ValueError(f"every point of this rank-{rank} datum has "
                             f"{rank} coordinates")
        if isinstance(lam, np.ndarray) and lam.dtype != object:
            ints = lam.dtype.kind != "b" and np.can_cast(lam.dtype, np.int64)
        else:
            ints = all(map(intlin.is_int, np.asarray(lam, dtype=object).flat))
        if not ints:
            raise TypeError(f"{lam!r} has coordinates that are not int64 "
                            "integers")
        return pts.reshape(-1, rank)

    def weyl_orbit(self, c: Sequence[int]) -> np.ndarray:
        """The finite Weyl orbit of the point ``c`` as a sorted (N, rank)
        int64 stack, by reverse search from its dominant point (Avis and
        Fukuda, Discrete Appl. Math. 65 (1996)): the parent of $\\mu$ is
        $s_i \\mu$ for its first negative coordinate $\\mu_i$, so each point
        is made once, with no set.  ``OverflowError`` past int64.

        The orbit depends on the type alone, so each is walked once per
        dominant point and kept in the frame's ``_orbits``: the stack
        returned is that shared one, not writeable.

        The children of $\\nu$, whose first negative coordinate is $f$
        ($f$ = rank when $\\nu$ is dominant), are pruned before any image
        is built: $s_i$ raises every coordinate but the $i$-th, so each
        $s_i \\nu$ with $i < f$ and $\\nu_i > 0$ is a child, and past $f$
        only the nodes $i$ with ``cartan[i][f]`` nonzero can clear the
        coordinate $f$.  A child's first negative coordinate is the node
        it was made by, so the walk, depth first, keeps it beside the
        point on its stack."""
        (start,) = self.point_stack(c).tolist()
        return self._dominant_orbit(self.dominant_rep(start))

    def _dominant_orbit(self, dom: Vec) -> np.ndarray:
        """The kept orbit of the dominant point ``dom``, walked and kept
        on its first request (:meth:`weyl_orbit`)."""
        orbit = self._orbits.get(dom)
        if orbit is not None:
            return orbit
        cartan, rank = self.cartan, self.rank
        # the nodes that can make a child of a point whose first negative
        # coordinate is f
        nodes = [[*range(f), *(i for i in range(f + 1, rank) if cartan[i][f])]
                 for f in range(rank)] + [range(rank)]
        out, stack = [], [(dom, rank)]
        while stack:
            nu, f = stack.pop()
            out.append(nu)
            for i in nodes[f]:
                ni = nu[i]
                if ni > 0:
                    mu = tuple([x - ni * a for x, a in zip(nu, cartan[i])])
                    if i < f or min(mu[:i]) >= 0:
                        stack.append((mu, i))
        orbit = np.array(sorted(out), dtype=np.int64)
        orbit.flags.writeable = False
        self._orbits[dom] = orbit
        return orbit

    def orbit_size(self, lam: Sequence[int]) -> int:
        """$|W \\lambda|$ with no walk: the product of $(\\mathrm{ht}\\,
        \\alpha + 1) / \\mathrm{ht}\\, \\alpha$ over the positive roots
        $\\alpha$ with $\\langle \\alpha, \\lambda \\rangle \\neq 0$, read at
        the dominant point of the orbit (Kostant, Amer. J. Math. 81
        (1959)): $|W|$ over the order of the parabolic stabilizer, each
        the product over its own positive roots.

        >>> build_root_datum("E", 8).orbit_size((1,) * 8)
        696729600
        """
        (start,) = self.point_stack(lam).tolist()
        dom = self.dominant_rep(start)
        num = den = 1
        for root, _ in self.pos_roots:
            if sum(map(mul, root, dom)):
                height = sum(root)
                num, den = num * (height + 1), den * height
        return num // den

    def orbit_stack(self, orbit) -> np.ndarray:
        """``orbit`` as an (N, rank) int64 stack (:meth:`point_stack`),
        else ``NotAFullOrbit`` unless it lists one full Weyl orbit, each
        point once, in any order (:meth:`is_weyl_orbit`).  A kept orbit
        of :meth:`weyl_orbit` itself, the same object, is returned as it
        is; every other stack, a copy or a view of one included, takes
        the full check."""
        if any(orbit is kept for kept in self._orbits.values()):
            return orbit
        if not len(orbit):
            raise NotAFullOrbit("empty orbit")
        pts = self.point_stack(orbit)
        if not self.is_weyl_orbit(pts):
            raise NotAFullOrbit(f"the {len(pts)} given points do not form "
                                "one full Weyl orbit")
        return pts

    def is_weyl_orbit(self, pts) -> bool:
        """Whether the (N, rank) int64 stack ``pts`` lists one full Weyl
        orbit, each point once, in any order: it holds exactly one
        dominant point $d$, and its rows, sorted when they are not
        already, equal the kept orbit of $d$ (:meth:`weyl_orbit`).  When
        that orbit is not kept yet, a stack of another size than
        :meth:`orbit_size` is refused before any walk, so a check never
        walks more points than the stack holds.  ``OverflowError`` for a
        coordinate whose reflections could pass int64."""
        pts = self.point_stack(pts)
        bound = (2**63 - 1) // (1 + max(map(abs, itertools.chain(
            *self.cartan))))
        if len(pts) and (pts.max() > bound or pts.min() < -bound):
            raise OverflowError("the reflections of a point with a "
                                f"coordinate beyond {bound} may pass int64")
        (at,) = np.nonzero((pts >= 0).all(axis=1))
        if len(at) != 1:
            return False
        dom = tuple(pts[at[0]].tolist())
        orbit = self._orbits.get(dom)
        if orbit is None:
            if len(pts) != self.orbit_size(dom):
                return False
            orbit = self._dominant_orbit(dom)
        return len(pts) == len(orbit) and bool(
            (pts == orbit).all()
            or (pts[np.lexsort(pts.T[::-1])] == orbit).all())

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

    def _translation_point(self, lam) -> np.ndarray:
        """The point ``lam`` as a (1, rank) int64 stack
        (:meth:`point_stack`: ``ValueError`` for another length or more
        than one point, ``TypeError`` for a coordinate that is not an
        integer), refused with ``OverflowError`` when a coordinate passes
        the bound past which the letters of its translation, times a node
        weight, could pass int64."""
        pts = self.point_stack(lam)
        if len(pts) != 1:
            raise ValueError(f"expected one point, got {len(pts)}")
        bound = self._translation_reach
        if pts.max() > bound or pts.min() < -bound:
            raise OverflowError("the translation of a point with a "
                                f"coordinate beyond {bound} may pass int64")
        return pts

    def translation_weighted_length(self, lam: Sequence[int]) -> int:
        """Node weights summed over a reduced word of the translation by
        the point ``lam``, checked by :meth:`_translation_point`:
        :meth:`translation_class_counts` times the class weights."""
        return self._weighted_length(self._translation_point(lam)[0])

    def _weighted_length(self, row: np.ndarray) -> int:
        """:meth:`translation_weighted_length` of an int64 point already
        within the bound of :meth:`_translation_point`."""
        return int(self.translation_class_counts(row) @ self.class_weights)

    def dominant_rep(self, c: Sequence[int]) -> Vec:
        """The unique dominant coweight in the Weyl orbit of ``c``."""
        cur = tuple(c)
        while True:
            s = next((i for i in range(1, self.rank + 1)
                      if cur[i - 1] < 0), None)
            if s is None:
                return cur
            cur = reflect_coweight(self.cartan, s, cur)

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

    def _key(self) -> tuple:
        """What :meth:`to_json` reports, as a hashable tuple: a custom
        lattice by its basis, a named one by its name."""
        return (self.kind, self.rank, self.class_weights,
                self.lattice_basis if self.lattice_name == "custom"
                else self.lattice_name)

    def __eq__(self, other: object) -> bool:
        """Whether the two :meth:`to_json` values are equal, so that data
        built apart from the same input combine."""
        if not isinstance(other, RootDatum):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _normalize_weights(datum_classes: tuple[tuple[int, ...], ...],
                       rank: int, weights) -> Vec:
    """Resolve the weight argument to a per-affine-node tuple."""
    n = rank + 1
    if isinstance(weights, (numbers.Number, str, bytes)):
        if not intlin.is_int(weights):
            raise DecorationNotClassConstant(
                f"weights must be integers, got {weights!r}")
        weights = (weights,) * len(datum_classes)
    if isinstance(weights, Mapping):
        per_node = dict(weights)
        if (not all(intlin.is_int(k) for k in per_node)
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
    if not all(intlin.is_int(x) for x in out):
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
    if not intlin.is_int(rank):
        raise InvalidRank(f"rank must be an integer, got {rank!r}")
    kind, rank = kind.upper(), int(rank)
    frame = _type_frame(kind, rank)
    w = _normalize_weights(frame["classes"], rank, weights)

    if lattice == "coweight":
        name, basis = "coweight", intlin.identity(rank)
    elif lattice == "coroot":
        name, basis = "coroot", frame["coroot_basis"]
    else:
        rows = [tuple(row) for row in lattice]
        if not all(intlin.is_int(x) for r in rows for x in r):
            raise LatticeNotIntermediate(
                f"lattice generators must have integer entries, got {rows!r}")
        rows = [tuple(int(x) for x in r) for r in rows]
        if any(len(r) != rank for r in rows):
            raise LatticeNotIntermediate(
                f"lattice generators must have length {rank}")
        basis = intlin.echelon_basis(rows, rank)
        if len(basis) != rank:
            raise LatticeNotIntermediate("lattice does not have full rank")
        for row in frame["cartan"]:
            if not intlin.in_row_lattice(basis, row):
                raise LatticeNotIntermediate(
                    "lattice does not contain the coroot lattice")
        name = "custom"
    return RootDatum(kind, rank, w, name, basis)


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
