"""Cauchy-Kovalevskaia extensions, the monogenic basis, Fischer decomposition.

The extension into a new coordinate x_e with parameter mu_e sends a spinor
polynomial p free of x_e to

    sum_a  c_{2a}   x_e^{2a}   Dt^{2a}   p
         + c_{2a+1} x_e^{2a+1} sigma_e Dt^{2a+1} p,

    c_{2a}   = (-1)^a     / (4^a a! (mu_e + 1/2)_a)
    c_{2a+1} = (-1)^(a+1) / (2 * 4^a a! (mu_e + 1/2) (mu_e + 3/2)_a)

where Dt is the Dirac-Dunkl operator in the remaining coordinates and (q)_a
is the rising factorial.  The series terminates because Dt lowers degree by
one; the result restricts to p at x_e = 0 and lies in the kernel of the full
Dirac-Dunkl operator.  Substituting x_e = 0 inverts the map.  The tower of the
two extensions is only the reference for `monogenic_basis`'s closed form.

`fischer_decompose` peels the Fischer decomposition off by the constants of
the osp(1|2) relations, with no monogenic basis and no linear solve.

Operators are applied only as `operators.LinOp` values, on the exact
integer kernels of `operators`: Dt is `operators.dirac(params, axes)`, the
Clifford coordinate is `operators.x_underline(axes)`, and x_e, sigma_e and
all powers are built from the same primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .closedform import closed_basis_pair
from .exact import Params
from .operators import coordinate_op, dirac, pauli_op, x_underline
from .poly import SpinorPoly
# Kept importable from here because benchmarks/test_harness.py patches and
# restores `ck.dunkl`.
from .poly import dunkl  # noqa: F401


def _ck_extend(
    polys: list[SpinorPoly], ext_axis: int, tangent_axes: tuple[int, ...], params: Params
) -> list[SpinorPoly]:
    mu = params.mu(ext_axis)
    # x_e commutes with Dt, so x_e^alpha Dt^alpha p = (x_e Dt)^alpha p.
    step = coordinate_op(ext_axis) * dirac(params, tangent_axes)
    sigma = pauli_op(ext_axis)
    out = []
    for p in polys:
        result = SpinorPoly.zero()
        current, coef, alpha = p, Fraction(1), 0  # current holds x_e^alpha Dt^alpha p
        while current:
            result = result + (sigma(current) if alpha % 2 else current).scale(coef)
            current = step(current)
            alpha += 1
            # c_alpha / c_(alpha-1) is -1 / (2 mu_e + alpha) for odd alpha, 1 / alpha for even.
            coef /= -(2 * mu + alpha) if alpha % 2 else alpha
        out.append(result)
    return out


def ck_extend_x3(polys: list[SpinorPoly], params: Params) -> list[SpinorPoly]:
    """Extend each spinor polynomial in x1, x2 to the kernel of the full
    Dirac-Dunkl operator; restricting to x3 = 0 recovers the input."""
    if any(p.involves(3) for p in polys):
        raise ValueError("input must not involve x3")
    return _ck_extend(polys, 3, (1, 2), params)


def ck_extend_x2(polys: list[SpinorPoly], params: Params) -> list[SpinorPoly]:
    """Extend each spinor polynomial in x1 alone to the kernel of the
    two-coordinate Dirac-Dunkl operator sigma1 T1 + sigma2 T2."""
    if any(p.involves(2) or p.involves(3) for p in polys):
        raise ValueError("input must involve x1 only")
    return _ck_extend(polys, 2, (1,), params)


@dataclass(frozen=True)
class BasisElement:
    k: int
    sign: int
    poly: SpinorPoly


@dataclass(frozen=True)
class MonogenicBasis:
    """Ordered basis of the degree-N monogenic space, 2(N+1) elements.

    Ordering: k ascending, + spinor before -, which fixes the indexing used
    by the JSON output and by the overlap matrices.
    """

    N: int
    params: Params
    elements: tuple[BasisElement, ...]


# Only one triple's construction task in `verify` reads this cache back: its
# monogenic and closedform sections ask for degrees 0..min(degree, 5), the
# function realization and Fischer for 0..min(degree, 4).  A default sweep
# hits 75 of its 100 calls, `--degree 16` 80 of 110 (25 with 5 entries).
# `basis --N` never hits.
@lru_cache(maxsize=6)
def monogenic_basis(N: int, params: Params) -> MonogenicBasis:
    """The degree-N basis from the closed form: elements (k, +) and (k, -)
    are `closedform.closed_basis_pair(N, k, params)`.  The extension tower
    builds the same polynomials, and the closedform section of `verify`
    checks this basis against it."""
    if N < 0:
        raise ValueError("N must be >= 0")
    elements = []
    for k in range(N + 1):
        pair = closed_basis_pair(N, k, params)
        elements.extend(BasisElement(k, sign, poly) for sign, poly in zip((1, -1), pair))
    return MonogenicBasis(N, params, tuple(elements))


@dataclass(frozen=True)
class FischerComponents:
    """Monogenic components M_(N-k) with input = sum_k x^k M_(N-k)."""

    degree: int
    components: tuple[SpinorPoly, ...]  # indexed by k = 0..N

    def reconstruct(self) -> SpinorPoly:
        x = x_underline()
        out = SpinorPoly.zero()
        for part in reversed(self.components):
            out = x(out) + part
        return out


def fischer_decompose(f: SpinorPoly, params: Params) -> FischerComponents:
    """Split a homogeneous spinor polynomial of degree N into Clifford-
    coordinate powers of monogenics, f = sum_k x^k M_(N-k).

    For a monogenic M of degree m the osp(1|2) relations give
    D x^k M = c_k x^(k-1) M, with c_(2j) = 2j and c_(2j+1) = 2(m + j + gamma3),
    all positive for non-negative parameters.  So D^k sends x^j M to zero for
    j < k, and for k = N down to 0, M_(N-k) = D^k(rest) / (c_1 ... c_k) at
    m = N - k, where rest is the input less the components already found.
    """
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    N = f.homogeneous_degree()
    d, x = dirac(params), x_underline()
    parts = [None] * (N + 1)
    rest = f
    for k in range(N, -1, -1):
        image, norm = rest, Fraction(1)
        for i in range(1, k + 1):
            image = d(image)
            norm *= 2 * (N - k + i // 2 + params.gamma3) if i % 2 else i
        parts[k] = part = image.scale(1 / norm)
        for _ in range(k):
            part = x(part)
        rest = rest - part
    return FischerComponents(N, tuple(parts))


def basis_to_json_dict(basis: MonogenicBasis) -> dict:
    return {
        "N": basis.N,
        "mu": basis.params.mu_strings(),
        "elements": [
            {
                "k": el.k,
                "sign": "+" if el.sign == 1 else "-",
                "poly": el.poly.to_json_dict(),
            }
            for el in basis.elements
        ],
    }
