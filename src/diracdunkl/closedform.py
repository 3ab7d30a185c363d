"""Closed-form eigenfunctions: homogenized Jacobi factors in |x_t|^2 and
x_axis^2 (scalar columns written out monomial by monomial from the
two-binomial form), the closed-form Cauchy-Kovalevskaia lift (`lift`, one
formula for both steps of the extension tower: from the line to the plane,
with source-space conformal constant mu_a1 + 1/2, and from the plane to
space, with mu_a1 + mu_a2 + 1), the explicit monogenic basis (the two lifts
applied to both constant spinors), normalized wavefunctions (one
squared-norm factor per lift), the exact scalar product on the sphere (one
integer bilinear form, `scalar_products`) and overlap matrices between the
two eigenbases.

Square roots never appear: each wavefunction is stored as a radical-free
spinor polynomial together with the exact square of its normalization
prefactor.  Every statement about norms is then checked at the squared
level, where it is a rational identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import (
    GRational,
    HALF,
    Params,
    factorial,
    pochhammer,
    rational_str,
)
from .operators import LinOp, coordinate_op, multiply_op, pauli_op, x_underline
from .poly import SpinorPoly, lcm_of_denominators, reduced, scaled

PSI_AXES = (1, 2, 3)
UPSILON_AXES = (2, 3, 1)


def homogenized_jacobi(m: int, alpha, beta, tangent: tuple[int, ...], axis: int) -> tuple:
    """(X + Y)^m P_m^(alpha, beta)((X - Y)/(X + Y)) as the reduced column of
    an exact polynomial, for X the sum of the squares of the `tangent`
    coordinates (one or two axes) and Y = x_axis^2; an empty sum, zero, for
    m < 0 (the convention of the branch formulas of `lift`).

    The two-binomial form of the Jacobi polynomial (DLMF 18.5.8) makes it
    the sum over s of C(m + alpha, m - s) C(m + beta, s) (-Y)^s X^(m - s),
    and X^(m - s) expands by the binomial theorem, so the column is written
    out monomial by monomial on integers over one denominator.  Each
    generalized binomial is a running product that divides only by an
    integer, so integer and negative parameters need no special case.
    """
    left, right = [Fraction(1)], [Fraction(1)]  # C(m + alpha, s), C(m + beta, s)
    for s in range(m):
        left.append(left[-1] * (m + alpha - s) / (s + 1))
        right.append(right[-1] * (m + beta - s) / (s + 1))
    coeffs = [(-1) ** s * left[m - s] * right[s] for s in range(m + 1)]
    scale = lcm_of_denominators(coeffs)
    entries = {}
    for s, c in enumerate(coeffs):
        n = m - s
        for i in range(n + 1) if len(tangent) == 2 else (n,):
            exps = [0, 0, 0]
            exps[axis - 1] = 2 * s
            for a, e in zip(tangent, (i, n - i)):
                exps[a - 1] = 2 * e
            entries[tuple(exps)] = (scaled(c, scale) * math.comb(n, i), 0)
    return reduced(scale, entries)


# ---------------------------------------------------------------------------
# The closed-form Cauchy-Kovalevskaia lift.

def _conformal_constant(axes: tuple[int, ...], params: Params) -> Fraction:
    """gamma of the space spanned by axes: the sum of their parameters plus
    half their number (mu1 + 1/2 on the line, mu1 + mu2 + 1 on the plane)."""
    return sum((params.mu(a) for a in axes), Fraction(len(axes), 2))


def lift(j: int, k: int, tangent: tuple[int, ...], axis: int, params: Params) -> LinOp:
    """Closed form of the Cauchy-Kovalevskaia extension into `axis` of
    x_t^j M, for M a degree-k Dunkl monogenic in the `tangent` axes and
    x_t = x_underline(tangent): a matrix-valued polynomial acting on M.

    Its one parameter is s = gamma + k - 1, where gamma, the conformal
    constant of the source space, is the sum of the tangent parameters plus
    len(tangent) / 2: mu_a1 + 1/2 on the line, mu_a1 + mu_a2 + 1 on the
    plane.  The two branches (j even / odd) combine homogenized Jacobi
    polynomials in X = |x_t|^2 and Y = x_axis^2, each the scalar column
    `homogenized_jacobi(..., tangent, axis)`, with at most one Clifford
    factor, as in the Jacobi-polynomial extensions of De Bie, Orsted,
    Somberg and Van der Jeugt (Trans. AMS 2012).  At j = 0 it is the
    identity.  The even branch leads with P^(m - 1/2, s); the published
    variant with s + 1 there is not the extension.
    """
    if j < 0 or k < 0:
        raise ValueError("need j >= 0 and k >= 0")
    m = params.mu(axis)
    s = _conformal_constant(tangent, params) + (k - 1)
    xt, x = x_underline(tangent), coordinate_op(axis)
    beta, odd = divmod(j, 2)
    pref = factorial(beta) / pochhammer(m + HALF, beta)

    def jacobi(n: int, a: Fraction, b: Fraction) -> LinOp:
        return multiply_op(homogenized_jacobi(n, a, b, tangent, axis))

    if not odd:
        first = jacobi(beta, m - HALF, s)
        op = first - pauli_op(axis) * xt * x * jacobi(beta - 1, m + HALF, s + 1)
    else:
        first = xt * jacobi(beta, m - HALF, s + 1)
        ratio = (beta + s + 1) / (beta + m + HALF)
        op = first - ratio * (pauli_op(axis) * x * jacobi(beta, m + HALF, s))
    return pref * op


# Only `verify` reads this cache back, within one triple: `ck.monogenic_basis`
# asks for psi k = 0..min(degree, 5) once per N >= k, `suite_orthogonality`
# for psi and upsilon k = 0..min(degree, 3): at most 10 entries, 12 if
# orthogonality reached degree 5.  A default sweep hits 130 of its 175 calls,
# `--degree 16` 155 of 205.  A command builds one N, so it never hits.
@lru_cache(maxsize=12)
def _planar_images(k: int, params: Params, axes: tuple[int, int, int]) -> tuple:
    """The planar factor of `closed_basis_pair` applied to chi+ and chi-:
    the extensions of x_a1^k chi into the plane of a1 and a2, shared by
    every N >= k.  Memoized, least recently used entries evicted past 12."""
    a1, a2, _ = axes
    planar = lift(k, 0, (a1,), a2, params)
    if k % 2:
        planar = planar * pauli_op(a1)
    return tuple(planar(SpinorPoly.unit(sign)) for sign in (1, -1))


def closed_basis_pair(
    N: int, k: int, params: Params, axes: tuple[int, int, int] = PSI_AXES
) -> tuple[SpinorPoly, SpinorPoly]:
    """The closed-form basis spinors (N, k, +) and (N, k, -), the
    extensions of x_a1^k chi+ and x_a1^k chi-.  On the line x_a1^k chi is
    x_t^k sigma_a1^k chi, so the planar lift(k, 0, (a1,), a2) acts on
    sigma_a1^k chi, and lift(N - k, k, (a1, a2), a3) carries the result to
    space.  The two lifts are applied one after the other: composed into one
    operator, the node sigma_a1 x_a1 they share would be evaluated one
    monomial at a time.  The planar images come from `_planar_images`, once
    per (k, params, axes).  At N = k the outer lift is the identity."""
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    a1, a2, a3 = axes
    outer = lift(N - k, k, (a1, a2), a3, params)
    plus, minus = (outer(f) for f in _planar_images(k, params, axes))
    return plus, minus


def _lift_norm(j: int, k: int, tangent: tuple, axis: int, params: Params) -> Fraction:
    """The factor of `squared_norm_factor` owed to lift(j, k, tangent, axis):
    (gamma + m + 1/2)_(beta + k) (m + 1/2)_beta / (beta! (gamma)_(beta + k)),
    times (beta + m + 1/2) / (beta + k + gamma) for odd j, with beta = j // 2,
    m the parameter of axis and gamma the conformal constant of the source
    space."""
    m = params.mu(axis)
    gamma = _conformal_constant(tangent, params)
    beta, odd = divmod(j, 2)
    out = (
        pochhammer(gamma + m + HALF, beta + k)
        * pochhammer(m + HALF, beta)
        / (factorial(beta) * pochhammer(gamma, beta + k))
    )
    if odd:
        out *= (beta + m + HALF) / (beta + k + gamma)
    return out


def squared_norm_factor(
    N: int, k: int, params: Params, axes: tuple[int, int, int] = PSI_AXES
) -> Fraction:
    """Exact square of the normalization prefactor of the (N, k) wavefunction:
    one factor per lift of `closed_basis_pair`, the planar one from the line
    (gamma = mu_a1 + 1/2) and the outer one from the plane
    (gamma = mu_a1 + mu_a2 + 1).

    All Gamma-function ratios are reduced to rising factorials relative to
    the k = N = 0 wavefunction; the constant dropped that way is shared by
    every (N, k, sign) and by both axis orderings, so the product
    squared_norm_factor * <poly, poly> is the same rational for all basis
    elements (and equals 1 under the unit-mass measure used here).
    """
    a1, a2, a3 = axes
    planar = _lift_norm(k, 0, (a1,), a2, params)
    return planar * _lift_norm(N - k, k, (a1, a2), a3, params)


@dataclass(frozen=True)
class NormalizedWavefunction:
    """Radical-free wavefunction with its exact squared normalization."""

    N: int
    k: int
    sign: int
    poly: SpinorPoly
    squared_norm_factor: Fraction

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "k": self.k,
            "sign": "+" if self.sign == 1 else "-",
            "poly": self.poly.to_json_dict(),
            "squared_norm": rational_str(self.squared_norm_factor),
        }


def _family_axes(family: str) -> tuple[int, int, int]:
    if family == "psi":
        return PSI_AXES
    if family == "upsilon":
        # Cyclic relabeling of coordinates, Pauli matrices and parameters;
        # this family diagonalizes the first Bannai-Ito generator instead of
        # the third, while keeping the same sign-sector operator.
        return UPSILON_AXES
    raise ValueError("family must be 'psi' or 'upsilon'")


def wavefunctions(
    N: int, params: Params, family: str = "psi"
) -> tuple[NormalizedWavefunction, ...]:
    """All 2(N + 1) normalized wavefunctions of one family, k ascending,
    + sign before -."""
    if N < 0:
        raise ValueError("N must be >= 0")
    axes = _family_axes(family)
    out = []
    for k in range(N + 1):
        factor = squared_norm_factor(N, k, params, axes)
        for sign, poly in zip((1, -1), closed_basis_pair(N, k, params, axes)):
            out.append(NormalizedWavefunction(N, k, sign, poly, factor))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact scalar product over the sphere.

# At least the C(103, 3) = 176,851 moments of `moments --N 100`, the largest
# working set of a command.
@lru_cache(maxsize=1 << 18)
def moment(params: Params, a: int, b: int, c: int) -> Fraction:
    """Normalized moment of x1^(2a) x2^(2b) x3^(2c) against the reflection
    invariant weight |x1|^(2 mu1) |x2|^(2 mu2) |x3|^(2 mu3) on the sphere,
    total mass 1: one rising-factorial step from the neighbour one exponent
    lower (c first, then b, then a), as in
    m(a, b, c) = m(a, b, c - 1) (mu3 + 1/2 + c - 1) / (gamma3 + a + b + c - 1).
    A total n that is a multiple of 32 takes its last 32 steps at once from
    the point of total n - 32 on the same path of neighbours, so a cold call
    makes at most 31 + n / 32 nested calls, whatever the cache keeps.
    Memoized, least recently used entries evicted past 2^18.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("moment exponents must be >= 0")
    n = a + b + c
    if not n:
        return Fraction(1)
    # On integers: mu + e - 1/2 = (2 p + (2 e - 1) q) / (2 q) for mu = p / q.
    start = n - 1 if n % 32 else n - 32
    gamma = params.gamma3
    num = den = 1
    for t in range(start + 1, n + 1):
        if t > a + b:
            mu, e = params.mu3, t - a - b
        elif t > a:
            mu, e = params.mu2, t - a
        else:
            mu, e = params.mu1, t
        num *= (2 * mu.numerator + (2 * e - 1) * mu.denominator) * gamma.denominator
        den *= 2 * mu.denominator * (gamma.numerator + (t - 1) * gamma.denominator)
    below = (min(a, start), min(b, max(start - a, 0)), max(start - a - b, 0))
    return moment(params, *below) * Fraction(num, den)


def scalar_products(polys, params: Params):
    """(i, j) -> <polys[i], polys[j]> on the sphere, conjugate-linear in i.

    Each operand's dual d[e2] = sum of conj(f_e1) m((e1 + e2) / 2), over the
    keys e2 of all operands, is computed once on integers (reduced columns,
    moments times the lcm of their denominators); products are then sparse
    integer dot products.
    """
    columns = [f.column for f in polys]
    # Keys pair to a moment when their spins and exponent parities agree.
    classes: dict = {}
    for sign, e in {key for _, entries in columns for key in entries}:
        classes.setdefault((sign, e[0] & 1, e[1] & 1, e[2] & 1), []).append(e)
    halves = {
        (sign, e1): [
            ((sign, e2), ((e1[0] + e2[0]) >> 1, (e1[1] + e2[1]) >> 1, (e1[2] + e2[2]) >> 1))
            for e2 in group
        ]
        for (sign, *_), group in classes.items()
        for e1 in group
    }
    moments = {half: moment(params, *half) for row in halves.values() for _, half in row}
    scale = lcm_of_denominators(moments.values())
    weights = {half: scaled(value, scale) for half, value in moments.items()}
    duals = []
    for den, entries in columns:
        dual: dict = {}
        for key, (re, im) in entries.items():
            for key2, half in halves[key]:
                m = weights[half]
                dr, di = dual.get(key2, (0, 0))
                dual[key2] = (dr + re * m, di - im * m)
        duals.append((den * scale, dual))

    def product(i: int, j: int) -> GRational:
        den, dual = duals[i]
        den_g, entries = columns[j]
        re = im = 0
        for key, (gr, gi) in entries.items():
            dr, di = dual.get(key, (0, 0))
            re += dr * gr - di * gi
            im += dr * gi + di * gr
        return GRational(Fraction(re, den * den_g), Fraction(im, den * den_g))

    return product


def inner_product(f: SpinorPoly, g: SpinorPoly, params: Params) -> GRational:
    """Scalar product over the sphere, conjugate-linear in the first slot."""
    return scalar_products((f, g), params)(0, 1)


# ---------------------------------------------------------------------------
# Overlaps between the two families.

@dataclass(frozen=True)
class OverlapData:
    """Raw overlaps (rows: upsilon family, columns: psi family) plus the
    exact Gram diagonals of both radical-free bases."""

    N: int
    params: Params
    upsilon_labels: tuple[tuple[int, int], ...]  # (s, sign)
    psi_labels: tuple[tuple[int, int], ...]  # (k, sign)
    overlaps: tuple[tuple[GRational, ...], ...]
    gram_upsilon: tuple[GRational, ...]
    gram_psi: tuple[GRational, ...]

    def to_json_dict(self) -> dict:
        def label(pair):
            return {"index": pair[0], "sign": "+" if pair[1] == 1 else "-"}

        return {
            "N": self.N,
            "mu": self.params.mu_strings(),
            "upsilon_labels": [label(p) for p in self.upsilon_labels],
            "psi_labels": [label(p) for p in self.psi_labels],
            "overlaps": [
                [value.to_json_dict() for value in row] for row in self.overlaps
            ],
            "gram_upsilon": [rational_str(v.re) for v in self.gram_upsilon],
            "gram_psi": [rational_str(v.re) for v in self.gram_psi],
        }


def overlap_matrix(N: int, params: Params) -> OverlapData:
    psis = wavefunctions(N, params, "psi")
    ups = wavefunctions(N, params, "upsilon")
    n = len(ups)  # psi wavefunction j is operand n + j
    product = scalar_products([w.poly for w in ups + psis], params)
    return OverlapData(
        N=N,
        params=params,
        upsilon_labels=tuple((u.k, u.sign) for u in ups),
        psi_labels=tuple((p.k, p.sign) for p in psis),
        overlaps=tuple(tuple(product(i, n + j) for j in range(n)) for i in range(n)),
        gram_upsilon=tuple(product(i, i) for i in range(n)),
        gram_psi=tuple(product(n + j, n + j) for j in range(n)),
    )
