"""Exact invariant theory and Poisson geometry of torus representations
of the classical groups.

The library has three layers:

*   an exact computer-algebra core: Gaussian-rational Laurent polynomials
    on products of maximal tori, the signed-permutation Weyl actions, and
    the level-reduction algorithm writing every integer-weight invariant
    as a polynomial in trace generators (plus the Q generators for even
    SO);
*   the symbolic Goldman Poisson algebra on trace symbols tau(p, q) with
    its family-specific bracket formulas;
*   a numeric Lie-theory layer (explicit matrix models, Killing/trace
    ratios, twisted Z^N cohomology dimensions, and a symplectic-form
    bracket oracle) that independently verifies the symbolic results.
"""

from .errors import (
    DomainError,
    InternalCheckError,
    ResourceLimitError,
    StructureError,
    UnsupportedInputError,
)
from .generators import (
    GeneratorPoly,
    decompose,
    expand,
    q_image,
    q_symbol,
    tau_image,
    tau_symbol,
)
from .groups import GroupSpec
from .laurent import LaurentPoly, canonical_mod_relations, exponents
from .lie import (
    ad_operator,
    cartan_metric,
    cartan_tangent,
    cocycle_space_dims,
    cohomology_dims,
    killing_ratio,
    lie_basis,
    numeric_bracket,
    omega_prime,
    positive_roots,
    random_group_element,
    random_torus_point,
    torus_matrix,
    variation,
)
from .points import TorusPoint
from .poisson import (
    TauPoly,
    bracket_poly,
    bracket_symbols,
    jacobi_defect,
    structure_constants,
)
from .scalars import GaussRat
from .weyl import (
    SignedPerm,
    act,
    invariance_violation,
    is_invariant,
    level_of_monomial,
    level_of_poly,
    orbit_sum,
    weyl_elements,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GaussRat",
    "GeneratorPoly",
    "GroupSpec",
    "InternalCheckError",
    "LaurentPoly",
    "ResourceLimitError",
    "SignedPerm",
    "StructureError",
    "TauPoly",
    "TorusPoint",
    "UnsupportedInputError",
    "act",
    "ad_operator",
    "bracket_poly",
    "bracket_symbols",
    "canonical_mod_relations",
    "cartan_metric",
    "cartan_tangent",
    "cocycle_space_dims",
    "cohomology_dims",
    "decompose",
    "expand",
    "exponents",
    "invariance_violation",
    "is_invariant",
    "jacobi_defect",
    "killing_ratio",
    "level_of_monomial",
    "level_of_poly",
    "lie_basis",
    "numeric_bracket",
    "omega_prime",
    "orbit_sum",
    "positive_roots",
    "q_image",
    "q_symbol",
    "random_group_element",
    "random_torus_point",
    "structure_constants",
    "tau_image",
    "tau_symbol",
    "torus_matrix",
    "variation",
    "weyl_elements",
]
