"""Exact computations with extended affine Hecke algebras.

The package builds root data with node weights, the extended affine Weyl
group and its length-zero subgroup, Hecke algebras over $\\mathbb{Z}[v,
v^{-1}]$ with Bernstein elements and central orbit sums, and the finite
dimensional modules whose reductions at $v = 0$ are supersingular in
characteristic $p$.  The ``heckelab`` console script exposes the same
functionality case by case.
"""

from .errors import (HeckeLabError, InvalidRank, DecorationNotClassConstant,
                     WeightTooLarge, LatticeNotIntermediate, NotInLattice,
                     DatumMismatch, NotAFullOrbit, HilbertBasisOverflow,
                     CharacterExtends, NoIndexTwoStructure, NotSimplyLaced,
                     NegativePowersPresent, RelationsFail,
                     SublatticeUnsupported)
from .laurent import Laurent, LaurentMatrix, q_power
from .rootdata import (RootDatum, build_root_datum, cartan_matrix,
                       dominant_monoid_generators, INFINITE_BOND)
from .extweyl import (ExtWeylElt, OmegaGroup, translation_word, aut_group,
                      decorated_aut_group, effective_lattice,
                      elements_up_to_length, affine_simple)
from .hecke import HeckeAlgebra, HeckeElt
from .modules import (Character, FinModule, enumerate_characters,
                      character_extends, induce_character, reflection_module,
                      decompose_at_v0)
from .classify import (SearchOutcome, is_discrete_character, is_supersingular,
                       key_result_search, translation_exponent,
                       central_orbit_matrix_v0)

__version__ = "0.1.0"

__all__ = [
    "HeckeLabError", "InvalidRank", "DecorationNotClassConstant",
    "WeightTooLarge",
    "LatticeNotIntermediate", "NotInLattice", "DatumMismatch",
    "NotAFullOrbit", "HilbertBasisOverflow", "CharacterExtends",
    "NoIndexTwoStructure", "NotSimplyLaced", "NegativePowersPresent",
    "RelationsFail", "SublatticeUnsupported",
    "Laurent", "LaurentMatrix", "q_power",
    "RootDatum", "build_root_datum", "cartan_matrix",
    "dominant_monoid_generators", "INFINITE_BOND",
    "ExtWeylElt", "OmegaGroup", "translation_word", "aut_group",
    "decorated_aut_group", "effective_lattice", "elements_up_to_length",
    "affine_simple",
    "HeckeAlgebra", "HeckeElt",
    "Character", "FinModule", "enumerate_characters", "character_extends",
    "induce_character", "reflection_module", "decompose_at_v0",
    "SearchOutcome", "is_discrete_character", "is_supersingular",
    "key_result_search", "translation_exponent", "central_orbit_matrix_v0",
    "__version__",
]
