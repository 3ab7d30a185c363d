"""Exact Dirac-Dunkl calculus on the two-sphere for the Z2^3 reflection group.

The package builds the operator calculus (Dunkl derivatives, Dirac and
Laplace operators, angular momenta, the spherical Dirac operator and its
Bannai-Ito symmetry algebra) over exact Gaussian-rational arithmetic, plus
the monogenic bases, closed-form wavefunctions and finite-dimensional
representation matrices, and verifies every identity by strict equality.

`import diracdunkl` loads no submodule: each name of `__all__` is imported
from its module on first access (PEP 562), so a command process compiles
only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# The defects `verify --mutate` can plant, one per section (see `suites`).
# They live here so that the command line can offer them without importing
# the suites.
MUTATIONS = {
    "gamma3+1": "osp12: shift the conformal constant in expected right sides",
    "quad+1": "symmetry: shift the constant of the quadratic relation",
    "eigenvalue+1": "monogenic: shift the expected degree eigenvalue",
    "lift-parameter+1": "closedform: read the basis at mu3 + 1, the axis parameter of its lift",
    "norm-factor*2": "orthogonality: scale odd-index squared norm factors",
    "omega3+1": "representation: shift the structure constant w3 of the band data",
    "component*2": "fischer: scale the last nonzero component before reconstructing",
}

_HOMES = {
    "exact": ("GRational", "Params", "pochhammer"),
    "poly": ("SpinorPoly",),
    "operators": ("IdentityReport", "LinOp", "angular", "bi_generator", "casimir", "dirac",
                  "involution", "laplace", "laplace_explicit", "laplace_s2",
                  "spherical_dirac", "symmetry", "verify_identity"),
    "ck": ("FischerComponents", "MonogenicBasis", "ck_extend_x2", "ck_extend_x3",
           "fischer_decompose", "monogenic_basis"),
    "closedform": ("NormalizedWavefunction", "inner_product", "moment", "overlap_matrix",
                   "wavefunctions"),
    "birep": ("LadderData", "RepMatrices", "ladder_norms", "match_function_realization",
              "rep_matrices", "verify_rep"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
