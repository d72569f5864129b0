"""Independent oracles used by the test suite.

The length oracle counts separating affine walls with exact rational
arithmetic: the length of a group element equals the number of
hyperplanes $\\{x : \\langle\\beta, x\\rangle = k\\}$ strictly between an
interior point of the base alcove and its image.  Since the base point
is chosen with $0 < \\langle\\beta, x_0\\rangle < 1$ for every positive
root, the count per direction is just the floor of the image pairing.

The monoid oracle checks generating sets of dominant lattice points by
brute force over coordinate boxes: irreducibility by subtracting pairs
(or, in ``box_monoid_generators``, by counting the points each box point
dominates) and generation by additive reachability.
``box_monoid_generators`` is the box enumeration the library used before
its parallelepiped route, kept as the reference that route is compared
against.

The orbit oracle ``search_weyl_orbit`` is the breadth-first search over
every simple reflection, with a set of seen points, that
``RootDatum.weyl_orbit`` used before its reverse-search walk.  Its
closure oracle ``closure_is_weyl_orbit`` is the test that
``RootDatum.is_weyl_orbit`` ran before it compared a stack with the
kept orbit of its dominant point: one dominant point, no point twice,
and every simple reflection mapping the set of rows into itself.

The root oracle ``reflect_closure`` is the closure that
``rootdata._close_roots`` ran before it recorded each root's simple
root: every simple reflection of every root found (``reflect_root``,
one pairing per node), kept when positive and not seen before.  Its
class oracle ``descent_hyperplane_tables`` is the
``rootdata._hyperplane_tables`` of that time, which walked every root
down to a simple root by height descent.

The coset oracle ``search_lattice_cosets`` is the breadth-first closure
of the zero coset under the lattice generators and their negatives, with
a set of seen representatives, that ``RootDatum.lattice_cosets`` used
before it filtered the coweight cosets of the type's frame.

The product oracle ``letter_by_letter`` multiplies Hecke elements one
right-hand term and one letter at a time, on ``Laurent`` coefficients,
with no prefix sharing and no packed coefficients.

The Bernstein oracle ``bernstein_star_first`` takes each Bernstein
element in the order ``HeckeAlgebra`` used before it walked from
$T_{t_-}$: the expanded $T^*_{t_+}$ times $T_{t_-}$, through
``HeckeElt.__mul__``.

The unpacking oracle ``digit_unpack`` is the loop over every balanced
digit that ``Laurent.unpack`` used before it skipped runs of zero digits.

The rational oracles ``frac_inverse`` and ``frac_det`` are the
Gauss-Jordan inverse and the elimination determinant over ``Fraction``
that ``intlin`` used before it found lattice rays by integer
back-substitution and determinants by Bareiss elimination;
``frac_lattice_rays`` reads the rays off the inverse basis.

The relation oracle ``laurent_check_relations`` is the word product that
``FinModule.check_relations`` ran before it packed the factor bank into
integers: the same words, multiplied as ``LaurentMatrix`` stacks, one
product per letter column, each reduced mod $p$ on a mod-$p$ module, and
the two sides of each relation subtracted degree by degree.  Its bank,
``laurent_bank``, is the one ``FinModule.check_relations`` assembled
from ``LaurentMatrix`` sums and a ``concat`` before it filled one
preallocated array.

The length-zero oracle ``omega_build`` is ``OmegaGroup.build`` as it ran
before the weight-free parts were kept per type and lattice: the alcove
walk of every coset representative, once per datum, with the elements
bound to that datum.

The central character oracle ``dense_central_scalar`` holds the only
full $c(v)$ of a certified module: the sum over the orbit of
$i^{a(\\lambda)} v^{L + \\langle \\lambda, y \\rangle}$, with the pairing
on lattice coordinates (``lattice_pairing``, read back off the
certificate's form over the datum's coordinates) applied to coordinates
found by back-substitution, and counted densely, one bincount per
$a \\bmod 4$ over every exponent from the least to the greatest.

The commutant oracle ``commutant_dimension`` is the linear system in
$n^2$ unknowns that ``_commutant_is_scalar`` solved before it tested one
cyclic element: the map $X \\mapsto (XA - AX)_A$ on $n \\times n$
matrices, over every $T_s$ and length-zero matrix $A$ at the
certificate's specialization.

The coset oracle ``reduce_mod_lattice`` is the row-by-row reduction that
``intlin`` kept beside ``lattice_coordinates``, whose remainders are the
same reduction over a whole stack.

The eigenvalue oracle ``stacked_eigen_column`` is the search that
``classify._eigen_column`` ran before it filtered the candidates by one
scalar identity: the rank-one test on one stacked $n \\times n$ matrix
per candidate $i^t v^k$.
"""

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

import numpy as np

from heckelab import (ExtWeylElt, HilbertBasisOverflow, Laurent,
                      LaurentMatrix, OmegaGroup, RelationsFail, extweyl,
                      intlin)
from heckelab.hecke import HeckeElt
from heckelab.modules import _relations
from heckelab.rootdata import reflect_coweight


def base_point(datum):
    """An interior point of the base alcove, in coweight coordinates."""
    height = sum(datum.theta)
    return [Fraction(1, height + 1)] * datum.rank


def alcove_length(elt) -> int:
    """Separating-wall count between the base alcove and its image."""
    datum = elt.datum
    x0 = base_point(datum)
    image = [tr + sum(row[j] * x0[j] for j in range(datum.rank))
             for tr, row in zip(elt.tr, elt.mat)]
    total = 0
    for root, _ in datum.pos_roots:
        pairing = sum(n * c for n, c in zip(root, image))
        assert pairing.denominator != 1, "image pairing landed on a wall"
        total += abs(pairing.__floor__())
    return total


def search_weyl_orbit(datum, c):
    """The Weyl orbit of ``c`` as sorted tuples: every simple reflection
    of every point found, kept when not seen before."""
    start = tuple(c)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for s in range(1, datum.rank + 1):
                y = reflect_coweight(datum.cartan, s, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def closure_is_weyl_orbit(datum, pts) -> bool:
    """Whether the stack ``pts`` lists one full Weyl orbit, each point
    once: it holds one dominant point and no point twice, and every
    simple reflection maps its set of rows into itself (a finite set that
    the reflections map into itself is a union of orbits, each with one
    dominant point)."""
    pts = datum.point_stack(pts)
    if (pts >= 0).all(axis=1).sum() != 1:
        return False
    seen = set(map(tuple, pts.tolist()))
    return len(seen) == len(pts) and all(
        reflect_coweight(datum.cartan, s, x) in seen
        for x in seen for s in range(1, datum.rank + 1))


def reflect_root(cartan, s, n):
    """The simple reflection at finite node ``s`` (label 1..rank) in
    simple-root coordinates."""
    i = s - 1
    out = list(n)
    out[i] -= sum(cartan[i][j] * n[j] for j in range(len(n)))
    return tuple(out)


def reflect_closure(cartan):
    """All positive roots as sorted (root coords, coroot coweight coords)
    pairs: the simple roots closed under every simple reflection, images
    with a negative coordinate skipped."""
    rank = len(cartan)
    frontier = list(zip(intlin.identity(rank), cartan))
    seen = dict(frontier)
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


def descent_hyperplane_tables(cartan, pos_roots, classes):
    """The positive roots as columns and the one-hot (root, class) tables
    of their even and odd hyperplanes, each root walked down to a simple
    root of its Weyl orbit: a root of height > 1 pairs positively with
    some simple coroot, and the first such reflection lowers its
    height."""
    roots = np.array([r for r, _ in pos_roots], dtype=np.int64)
    cartan = np.array(cartan, dtype=np.int64)
    beta = roots.copy()
    while (high := np.flatnonzero(beta.sum(axis=1) > 1)).size:
        pairs = beta[high] @ cartan.T
        i = (pairs > 0).argmax(axis=1)
        beta[high, i] -= pairs[np.arange(len(high)), i]
    node = np.empty(len(cartan) + 1, dtype=np.int64)
    for k, cls in enumerate(classes):
        node[list(cls)] = k
    even = node[1:][beta.argmax(axis=1)]
    two = ~((roots @ cartan.T) % 2).any(axis=1)
    odd = np.where(two, node[0], even)
    one_hot = np.eye(len(classes), dtype=np.int64)
    return roots.T, one_hot[even], one_hot[odd]


def reduce_mod_lattice(echelon, v) -> tuple:
    """Canonical representative of ``v`` modulo a full-rank row lattice
    with a square echelon basis: two vectors reduce to the same tuple
    exactly when they lie in the same coset."""
    rem = list(v)
    for row in echelon:
        col = next(j for j, x in enumerate(row) if x)
        f = rem[col] // row[col]
        rem = [x - f * y for x, y in zip(rem, row)]
    return tuple(rem)


def search_lattice_cosets(datum):
    """Canonical representatives of lattice / coroot-lattice cosets,
    sorted: the closure of the zero coset under adding the lattice
    generators and their negatives, reduced mod the coroot lattice."""
    seen = {(0,) * datum.rank}
    frontier = list(seen)
    gens = list(datum.lattice_basis)
    gens += [tuple(-x for x in g) for g in datum.lattice_basis]
    while frontier:
        nxt = []
        for c in frontier:
            for g in gens:
                d = reduce_mod_lattice(
                    datum.coroot_basis, tuple(a + b for a, b in zip(c, g)))
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    return tuple(sorted(seen))


def dominant_box_points(datum, bound, lattice="lattice"):
    """All nonzero dominant lattice points with coordinates in
    ``0..bound`` (dominant coweights have nonnegative coordinates)."""
    member = (datum.in_lattice if lattice == "lattice"
              else datum.in_coroot_lattice)
    points = []

    def walk(prefix):
        if len(prefix) == datum.rank:
            if any(prefix) and member(prefix):
                points.append(tuple(prefix))
            return
        for x in range(bound + 1):
            walk(prefix + [x])

    walk([])
    return points


def check_monoid_generators(datum, gens, bound, lattice="lattice"):
    """Every dominant box point must be an N-combination of ``gens`` and
    every generator must be irreducible; returns a list of complaints."""
    complaints = []
    points = set(dominant_box_points(datum, bound, lattice))
    # every partial sum of a decomposition of a box point into dominant
    # generators lies below that point, so reaching the box suffices
    reachable = {(0,) * datum.rank}
    frontier = [(0,) * datum.rank]
    limit = bound
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                cand = tuple(a + b for a, b in zip(pt, g))
                if cand in reachable or any(x > limit for x in cand):
                    continue
                reachable.add(cand)
                nxt.append(cand)
        frontier = nxt
    for pt in sorted(points):
        if pt not in reachable:
            complaints.append(f"{pt} is not a sum of generators")
    gen_set = set(gens)
    for g in gens:
        for other in points:
            if other == g or other not in points:
                continue
            rest = tuple(a - b for a, b in zip(g, other))
            if all(x >= 0 for x in rest) and (rest in points):
                complaints.append(f"generator {g} = {other} + {rest} splits")
                break
    if len(gen_set) != len(gens):
        complaints.append("generator list has duplicates")
    return complaints


def box_monoid_generators(datum, lattice="lattice", max_box=2_000_000):
    """Minimal generating set of the monoid of dominant lattice points.

    ``lattice`` selects which lattice to use: ``"lattice"`` for the datum's
    own, ``"coroot"`` for the coroot lattice, or an explicit echelon basis
    (a sequence of coweight vectors).  Enumerates the box with coordinates
    up to the lattice index in the coweight lattice; every dominant point
    reduces into the box by subtracting index-scaled fundamental
    coweights, so irreducible box points generate.

    For C2, ``box_monoid_generators(d, "coroot")`` is
    ``((0, 2), (1, 0))``.
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
    f = abs(frac_det(basis))
    if (f + 1) ** rank > max_box:
        raise HilbertBasisOverflow(
            f"{(f + 1) ** rank} box points exceed max_box={max_box}")

    def boxes(depth: int) -> Iterable[tuple[int, ...]]:
        if depth == 0:
            yield ()
            return
        for rest in boxes(depth - 1):
            for x in range(f + 1):
                yield rest + (x,)

    # one stacked membership test for the whole box, in lexicographic
    # order, which is the row-major order of the (f + 1)^rank grid
    box = list(boxes(rank))
    member = ~intlin.lattice_coordinates(basis, box)[1].any(axis=1)
    member[0] = False  # the origin
    # a point splits as p = q + (p - q) exactly when it dominates another
    # nonzero lattice point q (p - q then lies in the box and the lattice),
    # so count the nonzero lattice points below each grid point, itself
    # included, with one cumulative sum per axis
    below = member.reshape((f + 1,) * rank).astype(np.int64)
    for axis in range(rank):
        below = below.cumsum(axis=axis)
    irreducible = member & (below.reshape(-1) == 1)
    return tuple(p for p, keep in zip(box, irreducible.tolist()) if keep)


def times_letter(H, terms, s, twisted):
    """``terms``, a dict from group elements to coefficients, times T_s,
    or times $T^*_s = T_s - q_s + 1$ when ``twisted``, one term at a time
    (Iwahori and Matsumoto 1965): $T_x T_s = T_{xs}$ when s raises the
    length of x, else $q_s T_{xs} + (q_s - 1) T_x$."""
    q1 = H.q(s) - Laurent.one()
    out = H.zero()
    for x, c in terms.items():
        xs, descent = x.step(s)
        if descent:
            part = H.t(xs).scale(H.q(s)) + H.t(x).scale(q1)
        else:
            part = H.t(xs)
        if twisted:
            part = part - H.t(x).scale(q1)
        out = out + part.scale(c)
    return out.terms


def letter_by_letter(x, y, twisted=False):
    """``x`` times ``y`` (times the twisted symbols of ``y``'s support when
    ``twisted``), one right-hand term at a time: the length-zero part, then
    each letter of the reduced word on the whole partial product, by the
    rule of :func:`times_letter`."""
    H = x.alg
    total = H.zero()
    for w, c in y.terms.items():
        omega, word = w.reduced_word()
        part = {u * omega: a for u, a in x.terms.items()}
        for s in word:
            part = times_letter(H, part, s, twisted)
        total = total + HeckeElt(H, part).scale(c)
    return total


def bernstein_star_first(H, pts):
    """The sum of the Bernstein elements $v^{-\\delta} T^*_{t_+} T_{t_-}$
    at the distinct lattice points ``pts``, for the split of
    ``H.bernstein_split``: each twisted factor expanded by ``H.star_t``
    and multiplied by $T_{t_-}$ on the right, one point at a time."""
    d = H.datum
    plus_s, minus_s, deltas = H.bernstein_split(pts)
    total = H.zero()
    for plus, minus, delta in zip(plus_s.tolist(), minus_s.tolist(),
                                  deltas.tolist()):
        star = H.star_t(ExtWeylElt.translation(d, plus))
        t_minus = H.t(ExtWeylElt.translation(d, [-x for x in minus]))
        total = total + (star * t_minus).scale(Laurent.v(-delta))
    return total


def digit_unpack(p, b, lo):
    """The balanced base-$2^b$ digits of ``p`` as a ``Laurent`` from
    $v^{lo}$ up, one digit at a time, zero digits included."""
    out = {}
    mask, half = (1 << b) - 1, 1 << (b - 1)
    while p:
        p += half
        a = (p & mask) - half
        if a:
            out[lo] = a
        p >>= b
        lo += 1
    return Laurent(out)


def frac_inverse(m):
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def frac_lattice_rays(echelon):
    """The least positive $a_i$ with $a_i e_i$ in the full-rank lattice
    with basis ``echelon``: the least common denominator of row $i$ of
    the inverse basis."""
    return tuple(math.lcm(*(x.denominator for x in row))
                 for row in frac_inverse(echelon))


def frac_det(m) -> int:
    """Exact determinant by elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    prod = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        prod *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    value = sign * prod
    assert value.denominator == 1
    return int(value)


def laurent_bank(mod) -> LaurentMatrix:
    """The factor bank of ``mod.check_relations()`` from ``LaurentMatrix``
    sums and one ``concat``: $T_s$, $T_s - q_s$, $T_s + 1$, 1, 0 and the
    length-zero matrices."""
    omats, smats = mod.omega_mats, mod.smats
    one = LaurentMatrix.identity(mod.dim)
    return LaurentMatrix.concat(
        [smats, smats - mod.q_stack(), smats + one, one[None],
         LaurentMatrix(0, np.zeros_like(one.coeffs[None]))]
        + ([] if omats is None else [omats]))


def laurent_check_relations(mod) -> None:
    """``mod.check_relations()`` on ``LaurentMatrix`` word products:
    raises the same :class:`RelationsFail` (message, member and node
    values) on the same modules, without setting ``mod.checked``."""
    omats, smats = mod.omega_mats, mod.smats
    family = smats.coeffs.shape[1:-3]
    bank = laurent_bank(mod)
    labels, words = _relations(
        mod.alg.datum.coxeter_m,
        None if omats is None else mod.alg.omega.perms)
    prod = bank[words[:, 0]]
    for c in range(1, words.shape[1]):
        prod = mod._reduce(prod @ bank[words[:, c]])
    diff = mod._reduce(prod[0::2] - prod[1::2])
    bad = diff.coeffs.any(axis=(-3, -2, -1)).reshape(len(labels), -1)
    if not bad.any():
        return
    member = int(np.argmax(bad.any(axis=0)))
    message, args = labels[int(np.argmax(bad[:, member]))]
    message = message.format(*args)
    if not family:
        raise RelationsFail(message)
    index = tuple(map(int, np.unravel_index(member, family)))
    mats = smats[(slice(None),) + index]
    values = [[[str(mats.entry(s, i, j)) for j in range(mod.dim)]
               for i in range(mod.dim)] for s in range(len(mats))]
    if mod.dim == 1:
        values = [m[0][0] for m in values]
    raise RelationsFail(message, index, values)


def commutant_dimension(module) -> int:
    """The dimension over $F_q$ of the matrices that commute with every
    $\\rho(T_s)$ and length-zero matrix of ``module`` at $v$ =
    ``CERT_V``, $q$ = ``CERT_Q``: $n^2$ minus the rank of
    $X \\mapsto (XA - AX)_A$, one linear system in $n^2$ unknowns."""
    from heckelab.classify import CERT_Q, _specialize
    n = module.dim
    a = np.concatenate([_specialize(mats) for mats in (
        module.smats, module.omega_mats) if mats is not None])
    eye = np.eye(n, dtype=np.int64)
    # the coefficient of X[k, l] in (XA - AX)[i, j], per matrix A
    eqs = np.einsum("ik,alj->aijkl", eye, a) - np.einsum("aik,lj->aijkl",
                                                         a, eye)
    rows = intlin.echelon_mod(eqs.reshape(-1, n * n) % CERT_Q, CERT_Q)
    return n * n - len(rows)


def lattice_pairing(cert) -> np.ndarray:
    """The (rank, 2) matrix that takes the coordinates of a point of the
    lattice of the central character ``cert`` in its echelon basis $B$ to
    $(\\langle \\lambda, y \\rangle, a(\\lambda))$: $B$ times the last two
    columns of ``cert.form``, over ``cert.det``."""
    basis = np.array(cert.alg._level_basis(cert.level), dtype=np.int64)
    scaled = basis @ cert.form[:, -2:]
    assert not (scaled % cert.det).any()
    return scaled // cert.det


def dense_central_scalar(cert, pts) -> Laurent:
    """$c(v)$ of the central character ``cert`` on the Weyl orbit
    ``pts``, from lattice coordinates by back-substitution, counted
    densely over the exponent range."""
    vals = cert.alg.lattice_coordinates(pts, cert.level) @ lattice_pairing(
        cert)
    exps = vals[:, 0] + cert.alg.datum.translation_weighted_length(pts[0])
    lo = int(exps.min())
    size = int(exps.max()) - lo + 1
    counts = [np.bincount(exps[vals[:, 1] % 4 == t] - lo, minlength=size)
              for t in range(4)]
    assert (counts[1] == counts[3]).all()
    real = counts[0] - counts[2]
    return Laurent({lo + k: c for k, c in enumerate(real.tolist())})


def omega_build(datum) -> OmegaGroup:
    """The length-zero group of ``datum``, walked for this datum alone:
    per coroot coset, the length-zero part of the translation by its
    representative, named by the alcove vector the walk reaches, whose
    entries give the wall permutation; sorted by permutation."""
    den, n = datum.alcove_point[1], datum.rank + 1
    items = []
    for rep in datum.lattice_cosets():
        q, _ = extweyl._walk(datum, ExtWeylElt.translation(datum, rep).q)
        perm = ((den - 1 - sum(map(mul, q, datum.theta)),)
                + tuple(x - 1 for x in q))
        assert sorted(perm) == list(range(n))
        items.append((perm, q, rep))
    items.sort()
    perms = tuple(t[0] for t in items)
    elements = tuple(ExtWeylElt(datum, q, extweyl._wall_affine(datum, perm, q))
                     for perm, q, _ in items)
    by_coset = {rep: i for i, (_, _, rep) in enumerate(items)}
    assert perms[0] == tuple(range(n))
    assert len(set(perms)) == len(perms)
    return OmegaGroup(datum, elements, perms, by_coset)


def stacked_eigen_column(a, lo, hi):
    """``classify._eigen_column`` by the stack: the rank-one test
    $a_{ij} R = R e_j e_i^T R$ on $R = a - \\mu I$ for every candidate
    $\\mu = i^t v^k$, $t = 0..3$ and $k$ in ``[lo, hi]``, at once."""
    from heckelab.classify import CERT_I, CERT_Q, CERT_V
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
