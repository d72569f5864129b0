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


class SublatticeUnsupported(HeckeLabError, ValueError):
    """The classification search was asked about a datum whose lattice is
    a proper sublattice of the coweight lattice; it handles the full
    coweight lattice only.  Also a ``ValueError``, so callers that catch
    ``ValueError`` still catch it."""


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
    """A proposed module's matrices do not satisfy the defining relations.

    ``relation`` names the first failing relation.  A failure in a stack
    of modules also names its first failing member: ``member`` is its
    index over the family axes and ``values`` its node values (both
    ``None`` for a single module)."""

    def __init__(self, relation: str, member: tuple[int, ...] | None = None,
                 values=None):
        message = relation
        if member is not None:
            message += (f" in family member {member}"
                        f" with node values {values}")
        super().__init__(message)
        self.relation, self.member, self.values = relation, member, values
