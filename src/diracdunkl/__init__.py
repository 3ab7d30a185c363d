"""Exact Dirac-Dunkl calculus on the two-sphere for the Z2^3 reflection group.

The package builds the operator calculus (Dunkl derivatives, Dirac and
Laplace operators, angular momenta, the spherical Dirac operator and its
Bannai-Ito symmetry algebra) over exact Gaussian-rational arithmetic, plus
the monogenic bases, closed-form wavefunctions and finite-dimensional
representation matrices, and verifies every identity by strict equality.
"""

from .exact import GRational, Params, Rational, pochhammer
from .poly import ScalarPoly, SpinorPoly, divide_by_coordinate, dunkl, euler, pauli, reflect
from .operators import (
    IdentityReport,
    LinOp,
    angular,
    bi_generator,
    casimir,
    dirac,
    involution,
    laplace,
    laplace_explicit,
    laplace_s2,
    spherical_dirac,
    symmetry,
    verify_identity,
)
from .ck import (
    FischerComponents,
    MonogenicBasis,
    ck_extend_x2,
    ck_extend_x3,
    fischer_decompose,
    monogenic_basis,
)
from .closedform import (
    NormalizedWavefunction,
    inner_product,
    moment,
    normalized_wavefunction,
    overlap_matrix,
    wavefunctions,
)
from .birep import (
    LadderData,
    RepMatrices,
    ladder_norms,
    match_function_realization,
    rep_matrices,
    verify_rep,
)

__version__ = "0.1.0"

__all__ = [
    "GRational", "Params", "Rational", "pochhammer",
    "ScalarPoly", "SpinorPoly", "divide_by_coordinate", "dunkl", "euler",
    "pauli", "reflect",
    "IdentityReport", "LinOp", "angular", "bi_generator", "casimir", "dirac",
    "involution", "laplace", "laplace_explicit", "laplace_s2",
    "spherical_dirac", "symmetry", "verify_identity",
    "FischerComponents", "MonogenicBasis", "ck_extend_x2", "ck_extend_x3",
    "fischer_decompose", "monogenic_basis",
    "NormalizedWavefunction", "inner_product", "moment",
    "normalized_wavefunction", "overlap_matrix", "wavefunctions",
    "LadderData", "RepMatrices", "ladder_norms", "match_function_realization",
    "rep_matrices", "verify_rep",
    "__version__",
]
