"""Exact local computations for isolated hypersurface singularities.

Sparse polynomial arithmetic over Q and F_p, local standard bases (Lazard),
Milnor/Tjurina numbers, Newton diagrams and weight polytopes, piecewise
valuations, expected-valuation graded algebras with their finiteness and
exactness conditions, inner non-degeneracy, determinacy bounds and normal
forms with respect to right and contact equivalence.
"""

from possing.poly import Ring, Poly, Automorphism, INFINITY
from possing.localalg import (
    StandardBasis,
    std_basis,
    vdim,
    milnor,
    tjurina,
    saturate,
)
from possing.newton import (
    NewtonData,
    CPolytope,
    Face,
    newton_diagram,
    cpolytope_from_weights,
    cpolytope_from_poly,
    valuation,
    initial_form,
    inner_faces,
)
from possing.grading import (
    GradedPieceReport,
    RegularBasisResult,
    regular_basis,
    check_condition,
    ray_criterion,
)
from possing.nondeg import (
    QHType,
    SQHReport,
    INNDReport,
    detect_qh,
    sqh_check,
    innd_check,
    saito_check,
)
from possing.normalform import (
    DeterminacyReport,
    NormalFormResult,
    determinacy_generic,
    determinacy_filtered,
    normal_form,
)

__all__ = [
    "Ring",
    "Poly",
    "Automorphism",
    "INFINITY",
    "StandardBasis",
    "std_basis",
    "vdim",
    "milnor",
    "tjurina",
    "saturate",
    "NewtonData",
    "CPolytope",
    "Face",
    "newton_diagram",
    "cpolytope_from_weights",
    "cpolytope_from_poly",
    "valuation",
    "initial_form",
    "inner_faces",
    "GradedPieceReport",
    "RegularBasisResult",
    "regular_basis",
    "check_condition",
    "ray_criterion",
    "QHType",
    "SQHReport",
    "INNDReport",
    "detect_qh",
    "sqh_check",
    "innd_check",
    "saito_check",
    "DeterminacyReport",
    "NormalFormResult",
    "determinacy_generic",
    "determinacy_filtered",
    "normal_form",
]

__version__ = "0.1.0"
