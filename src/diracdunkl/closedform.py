"""Closed-form eigenfunctions: Jacobi polynomials, the explicit monogenic
basis, normalized wavefunctions, the exact scalar product on the sphere (one
integer bilinear form, `scalar_products`) and overlap matrices between the
two eigenbases.

Square roots never appear: each wavefunction is stored as a radical-free
spinor polynomial together with the exact square of its normalization
prefactor.  Every statement about norms is then checked at the squared
level, where it is a rational identity.
"""

from __future__ import annotations

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
from .operators import LinOp, coordinate_op, multiply_op, pauli_op
from .poly import ScalarPoly, SpinorPoly, lcm_of_denominators, scaled

PSI_AXES = (1, 2, 3)
UPSILON_AXES = (2, 3, 1)


class UnivariatePoly:
    """Dense univariate polynomial over the rationals, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value) -> "UnivariatePoly":
        return cls((value,))

    @classmethod
    def x(cls) -> "UnivariatePoly":
        return cls((0, 1))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return UnivariatePoly(out)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return UnivariatePoly(out)

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if not self.coeffs or not other.coeffs:
            return UnivariatePoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(out)

    def scale(self, value) -> "UnivariatePoly":
        value = Fraction(value)
        return UnivariatePoly([c * value for c in self.coeffs])

    def __repr__(self):
        return f"UnivariatePoly({list(self.coeffs)!r})"


def _jacobi_series_coeff(n: int, j: int, alpha: Fraction, beta: Fraction) -> Fraction:
    # Coefficient of ((1 - x)/2)^j in the degree-n Jacobi polynomial,
    # written without quotients of Pochhammer symbols so that integer and
    # negative parameter values need no special cases.
    return (
        pochhammer(-n, j)
        * pochhammer(n + alpha + beta + 1, j)
        * pochhammer(alpha + j + 1, n - j)
        / (factorial(n) * factorial(j))
    )


def jacobi(n: int, alpha, beta) -> UnivariatePoly:
    """Jacobi polynomial with rational parameters, exact coefficients.

    Defined through the terminating hypergeometric series; the resulting
    degree can drop below n for degenerate parameter choices.
    """
    if n < 0:
        return UnivariatePoly(())
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    half_one_minus_x = UnivariatePoly((HALF, -HALF))
    out = UnivariatePoly(())
    power = UnivariatePoly.constant(1)
    for j in range(n + 1):
        c = _jacobi_series_coeff(n, j, alpha, beta)
        if c:
            out = out + power.scale(c)
        power = power * half_one_minus_x
    return out


def homogenized_jacobi(
    m: int, alpha, beta, big_x: ScalarPoly, big_y: ScalarPoly
) -> ScalarPoly:
    """(X + Y)^m P_m^(alpha, beta)((X - Y)/(X + Y)) as an exact polynomial.

    Substituting the argument into the series turns ((1 - w)/2)^j into
    Y^j (X + Y)^(m - j), so the result is polynomial in X and Y.  Returns
    zero for m < 0 (the convention used by the branch formulas below).
    """
    if m < 0:
        return ScalarPoly.zero()
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    total = ScalarPoly.zero()
    s = big_x + big_y
    s_powers = [ScalarPoly.constant(1)]  # (X + Y)^i
    for _ in range(m):
        s_powers.append(s_powers[-1] * s)
    y_power = ScalarPoly.constant(1)  # Y^j
    for j in range(m + 1):
        c = _jacobi_series_coeff(m, j, alpha, beta)
        if c:
            total = total + (y_power * s_powers[m - j]).scale(c)
        y_power = y_power * big_y
    return total


# ---------------------------------------------------------------------------
# Closed-form basis factors.

def planar_monogenic(
    k: int, params: Params, axes: tuple[int, int, int] = PSI_AXES
) -> LinOp:
    """Matrix-valued polynomial acting on constant spinors: the degree-k
    monogenic in the two tangential coordinates, in closed form.

    The two branches (k even / odd) combine homogenized Jacobi polynomials in
    the squared coordinates with at most one Clifford matrix factor.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a1, a2 = axes[0], axes[1]
    m1, m2 = params.mu(a1), params.mu(a2)
    x1 = ScalarPoly.variable(a1)
    x2 = ScalarPoly.variable(a2)
    big_x = x1 * x1
    big_y = x2 * x2
    beta, odd = divmod(k, 2)
    pref = factorial(beta) / pochhammer(m2 + HALF, beta)
    if not odd:
        first = multiply_op(homogenized_jacobi(beta, m2 - HALF, m1 - HALF, big_x, big_y))
        cross = homogenized_jacobi(beta - 1, m2 + HALF, m1 + HALF, big_x, big_y)
        second = pauli_op(a2) * pauli_op(a1) * multiply_op(x1 * x2 * cross)
        op = first - second
    else:
        first = multiply_op(
            x1 * homogenized_jacobi(beta, m2 - HALF, m1 + HALF, big_x, big_y)
        )
        ratio = (beta + m1 + HALF) / (beta + m2 + HALF)
        second = pauli_op(a2) * pauli_op(a1) * multiply_op(
            x2 * homogenized_jacobi(beta, m2 + HALF, m1 - HALF, big_x, big_y)
        )
        op = first - ratio * second
    return pref * op


def monogenic_lift(
    N: int,
    k: int,
    params: Params,
    axes: tuple[int, int, int] = PSI_AXES,
    even_parameter_shift: int = 0,
) -> LinOp:
    """Closed-form factor lifting a degree-k planar monogenic to degree N.

    even_parameter_shift perturbs the second Jacobi parameter of the even
    branch's leading term; it exists only so the verification suite can show
    that the cross-validation against the extension tower is sensitive to it.
    """
    if not 0 <= k <= N:
        raise ValueError("need 0 <= k <= N")
    a1, a2, a3 = axes
    m3 = params.mu(a3)
    s12 = params.mu(a1) + params.mu(a2)
    x3 = ScalarPoly.variable(a3)
    big_x = (
        ScalarPoly.variable(a1) * ScalarPoly.variable(a1)
        + ScalarPoly.variable(a2) * ScalarPoly.variable(a2)
    )
    big_y = x3 * x3
    beta, odd = divmod(N - k, 2)
    pref = factorial(beta) / pochhammer(m3 + HALF, beta)
    xt = pauli_op(a1) * coordinate_op(a1) + pauli_op(a2) * coordinate_op(a2)
    if not odd:
        first = multiply_op(
            homogenized_jacobi(
                beta, m3 - HALF, k + s12 + even_parameter_shift, big_x, big_y
            )
        )
        cross = homogenized_jacobi(beta - 1, m3 + HALF, k + s12 + 1, big_x, big_y)
        second = pauli_op(a3) * xt * multiply_op(x3 * cross)
        op = first - second
    else:
        first = xt * multiply_op(
            homogenized_jacobi(beta, m3 - HALF, k + s12 + 1, big_x, big_y)
        )
        ratio = (k + beta + s12 + 1) / (beta + m3 + HALF)
        second = pauli_op(a3) * multiply_op(
            x3 * homogenized_jacobi(beta, m3 + HALF, k + s12, big_x, big_y)
        )
        op = first - ratio * second
    return pref * op


def closed_basis_element(
    N: int,
    k: int,
    sign: int,
    params: Params,
    axes: tuple[int, int, int] = PSI_AXES,
    even_parameter_shift: int = 0,
) -> SpinorPoly:
    """Closed-form basis spinor: lift factor times planar factor on chi_sign."""
    op = monogenic_lift(N, k, params, axes, even_parameter_shift) * planar_monogenic(
        k, params, axes
    )
    return op(SpinorPoly.unit(sign))


def squared_norm_factor(
    N: int, k: int, params: Params, axes: tuple[int, int, int] = PSI_AXES
) -> Fraction:
    """Exact square of the normalization prefactor of the (N, k) wavefunction.

    All Gamma-function ratios are reduced to rising factorials relative to
    the k = N = 0 wavefunction; the constant dropped that way is shared by
    every (N, k, sign) and by both axis orderings, so the product
    squared_norm_factor * <poly, poly> is the same rational for all basis
    elements (and equals 1 under the unit-mass measure used here).
    """
    a1, a2, a3 = axes
    m1, m2, m3 = params.mu(a1), params.mu(a2), params.mu(a3)
    s12 = m1 + m2
    beta_m, odd_k = divmod(k, 2)
    beta_q, odd_n = divmod(N - k, 2)
    phi2 = (
        factorial(beta_m)
        * pochhammer(s12 + 1, beta_m)
        / (pochhammer(m1 + HALF, beta_m) * pochhammer(m2 + HALF, beta_m))
    )
    if odd_k:
        phi2 *= (beta_m + m2 + HALF) / (beta_m + m1 + HALF)
    theta2 = (
        factorial(beta_q)
        * pochhammer(params.gamma3, beta_q + k)
        / (pochhammer(m3 + HALF, beta_q) * pochhammer(s12 + 1, beta_q + k))
    )
    if odd_n:
        theta2 *= (beta_q + m3 + HALF) / (beta_q + k + s12 + 1)
    m_pref = factorial(beta_m) / pochhammer(m2 + HALF, beta_m)
    q_pref = factorial(beta_q) / pochhammer(m3 + HALF, beta_q)
    return theta2 * phi2 / (m_pref * m_pref * q_pref * q_pref)


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


def normalized_wavefunction(
    N: int, k: int, sign: int, params: Params, family: str = "psi"
) -> NormalizedWavefunction:
    axes = _family_axes(family)
    return NormalizedWavefunction(
        N=N,
        k=k,
        sign=sign,
        poly=closed_basis_element(N, k, sign, params, axes),
        squared_norm_factor=squared_norm_factor(N, k, params, axes),
    )


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
    return tuple(
        normalized_wavefunction(N, k, sign, params, family)
        for k in range(N + 1)
        for sign in (1, -1)
    )


# ---------------------------------------------------------------------------
# Exact scalar product over the sphere.

@lru_cache(maxsize=None)
def moment(params: Params, a: int, b: int, c: int) -> Fraction:
    """Normalized moment of x1^(2a) x2^(2b) x3^(2c) against the reflection
    invariant weight |x1|^(2 mu1) |x2|^(2 mu2) |x3|^(2 mu3) on the sphere,
    total mass 1: one rising-factorial step from the neighbour one exponent
    lower (c first, then b, then a), as in
    m(a, b, c) = m(a, b, c - 1) (mu3 + 1/2 + c - 1) / (gamma3 + a + b + c - 1).
    Filling every 32nd point of the path of neighbours from the origin first
    bounds the nesting of a cold call by about 32 at any degree.  Memoized.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("moment exponents must be >= 0")
    n = a + b + c
    if not n:
        return Fraction(1)
    for t in range(32, n - 1, 32):
        moment(params, min(a, t), min(b, max(t - a, 0)), max(t - a - b, 0))
    if c:
        mu, e, below = params.mu3, c, (a, b, c - 1)
    elif b:
        mu, e, below = params.mu2, b, (a, b - 1, 0)
    else:
        mu, e, below = params.mu1, a, (a - 1, 0, 0)
    return moment(params, *below) * (mu + e - HALF) / (params.gamma3 + (n - 1))


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
