"""Independent oracles used by the test suite.

The length oracle counts separating affine walls with exact rational
arithmetic: the length of a group element equals the number of
hyperplanes $\\{x : \\langle\\beta, x\\rangle = k\\}$ strictly between an
interior point of the base alcove and its image.  Since the base point
is chosen with $0 < \\langle\\beta, x_0\\rangle < 1$ for every positive
root, the count per direction is just the floor of the image pairing.

The monoid oracle checks generating sets of dominant lattice points by
brute force over coordinate boxes: irreducibility by subtracting pairs
and generation by additive reachability.  ``box_monoid_generators`` is
the box enumeration the library used before its parallelepiped route,
kept as the reference that route is compared against.
"""

from fractions import Fraction
from typing import Iterable

from heckelab import HilbertBasisOverflow, intlin


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
    f = abs(intlin.det(basis))
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

    # one stacked membership test for the whole box
    box = list(boxes(rank))
    member = intlin.rows_in_lattice(basis, box).tolist()
    points = sorted(p for p, inside in zip(box, member) if any(p) and inside)
    pset = set(points)
    gens = []
    for p in points:
        reducible = any(
            q != p and tuple(a - b for a, b in zip(p, q)) in pset
            for q in points
            if all(a >= b for a, b in zip(p, q))
        )
        if not reducible:
            gens.append(p)
    return tuple(gens)
