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
Dirac-Dunkl operator.  Substituting x_e = 0 inverts the map.

Operators are applied only as `operators.LinOp` values, on the exact
integer kernels of `operators`: Dt is `operators.dirac(params, axes)`, the
Clifford coordinate is `operators.x_underline(axes)`, and x_e, sigma_e and
all powers are built from the same primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .exact import HALF, Params, pochhammer
from .operators import coordinate_op, dirac, pauli_op, x_underline
from .poly import SpinorPoly
# Kept importable from here because benchmarks/test_harness.py patches and
# restores `ck.dunkl`.
from .poly import dunkl  # noqa: F401


def _ck_extend(
    p: SpinorPoly, ext_axis: int, tangent_axes: tuple[int, ...], params: Params
) -> SpinorPoly:
    mu = params.mu(ext_axis)
    # x_e commutes with Dt, so x_e^alpha Dt^alpha p = (x_e Dt)^alpha p.
    step = coordinate_op(ext_axis) * dirac(params, tangent_axes)
    sigma = pauli_op(ext_axis)
    result = SpinorPoly.zero()
    current = p  # holds x_e^alpha Dt^alpha p
    alpha = 0
    while current:
        a, odd = divmod(alpha, 2)
        coef = Fraction((-1) ** (a + odd), 4**a) / (
            pochhammer(mu + HALF, a)
            if not odd
            else 2 * (mu + HALF) * pochhammer(mu + Fraction(3, 2), a)
        )
        coef /= pochhammer(1, a)  # a!
        result = result + (sigma(current) if odd else current).scale(coef)
        current = step(current)
        alpha += 1
    return result


def ck_extend_x3(p: SpinorPoly, params: Params) -> SpinorPoly:
    """Extend a spinor polynomial in x1, x2 to the kernel of the full
    Dirac-Dunkl operator; restricting to x3 = 0 recovers the input."""
    if p.involves(3):
        raise ValueError("input must not involve x3")
    return _ck_extend(p, 3, (1, 2), params)


def ck_extend_x2(p: SpinorPoly, params: Params) -> SpinorPoly:
    """Extend a spinor polynomial in x1 alone to the kernel of the
    two-coordinate Dirac-Dunkl operator sigma1 T1 + sigma2 T2."""
    if p.involves(2) or p.involves(3):
        raise ValueError("input must involve x1 only")
    return _ck_extend(p, 2, (1,), params)


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


# At least the 30 bases (degrees 0..5 for each of five triples) of a default
# `verify` run, the largest working set of a command.
@lru_cache(maxsize=64)
def monogenic_basis(N: int, params: Params) -> MonogenicBasis:
    """Build the degree-N basis by the two-step extension tower.

    Element (k, sign) is the x3-extension of xt^(N-k) times the
    x2-extension of x1^k chi_sign, where xt is the in-plane Clifford
    coordinate sum.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    elements = []
    for k in range(N + 1):
        for sign in (1, -1):
            seed = SpinorPoly.monomial((k, 0, 0), sign)
            planar = ck_extend_x2(seed, params)
            lifted = (x_underline((1, 2)) ** (N - k))(planar)
            elements.append(BasisElement(k, sign, ck_extend_x3(lifted, params)))
    return MonogenicBasis(N, params, tuple(elements))


@dataclass(frozen=True)
class FischerComponents:
    """Monogenic components M_(N-k) with input = sum_k x^k M_(N-k)."""

    degree: int
    components: tuple[SpinorPoly, ...]  # indexed by k = 0..N

    def reconstruct(self) -> SpinorPoly:
        out = SpinorPoly.zero()
        for k, part in enumerate(self.components):
            out = out + (x_underline() ** k)(part)
        return out


def fischer_columns(N: int, params: Params) -> list[tuple]:
    """The columns of x^k M_(N-k) for k = 0..N, one per element of each
    degree-(N-k) monogenic basis, in basis order."""
    columns = []
    for k in range(N + 1):
        power = x_underline() ** k
        for element in monogenic_basis(N - k, params).elements:
            columns.append(power(element.poly).column)
    return columns


def fischer_decompose(f: SpinorPoly, params: Params) -> FischerComponents:
    """Split a homogeneous spinor polynomial into Clifford-coordinate powers
    of monogenics, by one exact linear solve in the monomial frame.

    The decomposition is a direct sum for non-negative parameters, so the
    square system below is invertible; a singular system indicates an
    internal error rather than bad input.
    """
    if not f:
        raise ValueError("cannot decompose the zero polynomial")
    N = f.homogeneous_degree()
    try:
        (solution,) = linalg.solve(fischer_columns(N, params), [f.column])
    except ValueError as exc:
        raise RuntimeError(f"Fischer system unexpectedly singular: {exc}") from exc
    coefs = iter(solution)  # in the order of fischer_columns
    parts = []
    for k in range(N + 1):
        part = SpinorPoly.zero()
        for element, coef in zip(monogenic_basis(N - k, params).elements, coefs):
            if coef:
                part = part + element.poly.scale(coef)
        parts.append(part)
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
