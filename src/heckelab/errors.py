"""Exception hierarchy for heckelab.

Every failure mode that user input can trigger raises a subclass of
:class:`HeckeLabError`, so callers (and the CLI) can distinguish bad input
from genuine bugs.  Internal invariant breaches raise plain
``AssertionError`` and are never caught.
"""

from __future__ import annotations


class HeckeLabError(Exception):
    """Base class for all errors raised on account of user-supplied data."""


class InvalidRank(HeckeLabError):
    """The requested Cartan type / rank combination does not exist."""


class DecorationNotClassConstant(HeckeLabError):
    """A weight function assigns different values inside one conjugacy
    class of affine simple reflections."""


class WeightTooLarge(HeckeLabError):
    """A node weight exceeds the bound the dense degree axes of module
    matrices can afford (their size grows with the largest weight)."""


class LatticeNotIntermediate(HeckeLabError):
    """An explicitly given lattice does not sit between the coroot lattice
    and the coweight lattice."""


class NotInLattice(HeckeLabError):
    """A translation was requested for a vector outside the chosen lattice
    (or outside its decoration-compatible sublattice)."""


class DatumMismatch(HeckeLabError):
    """Two objects built from different underlying data were combined."""


class NotAFullOrbit(HeckeLabError):
    """A purported Weyl orbit is not closed under the group action."""


class HilbertBasisOverflow(HeckeLabError):
    """Monoid generator enumeration exceeded its configured search box."""


class CharacterExtends(HeckeLabError):
    """Induction was requested for a character that extends to the larger
    algebra, so the induced module would be reducible."""


class NoIndexTwoStructure(HeckeLabError):
    """Induction was requested but the stabilizer does not have index two,
    so the two-dimensional construction does not apply."""


class NotSimplyLaced(HeckeLabError):
    """The reflection representation requires a simply laced diagram."""


class NegativePowersPresent(HeckeLabError):
    """A specialization at v = 0 was attempted on a scalar or matrix that
    still contains negative powers of v."""


class RelationsFail(HeckeLabError):
    """A proposed module's matrices do not satisfy the defining relations."""


class UnhandledCase(HeckeLabError):
    """The classification search ran out of applicable constructions."""
