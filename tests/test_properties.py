"""Property tests: randomly drawn inputs checked against the slow
reference routes of the test oracles."""

from hypothesis import given, settings, strategies as st

from heckelab import (build_root_datum, cartan_matrix,
                      dominant_monoid_generators)
from geom_oracle import box_monoid_generators, check_monoid_generators


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
               ("F", 4), ("G", 2)]


@st.composite
def intermediate_lattices(draw):
    """A datum of rank at most 4 whose lattice is spanned by the coroots
    and up to two random coweights."""
    kind, rank = draw(st.sampled_from(SMALL_TYPES))
    extra = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        max_size=2))
    rows = list(cartan_matrix(kind, rank)) + [tuple(r) for r in extra]
    return build_root_datum(kind, rank, lattice=rows)


@settings(max_examples=150, deadline=None)
@given(intermediate_lattices())
def test_parallelepiped_on_random_lattices(d):
    gens = dominant_monoid_generators(d)
    assert gens == box_monoid_generators(d)
    assert check_monoid_generators(d, gens, bound=3) == []
