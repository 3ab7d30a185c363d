"""Closed-form eigenfunctions: homogenized Jacobi polynomials (summed on
Gaussian-integer terms), the explicit monogenic basis (one operator per
(N, k), applied to both constant spinors), normalized wavefunctions, the
exact scalar product on the sphere (one integer bilinear form,
`scalar_products`) and overlap matrices between the two eigenbases.

Square roots never appear: each wavefunction is stored as a radical-free
spinor polynomial together with the exact square of its normalization
prefactor.  Every statement about norms is then checked at the squared
level, where it is a rational identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .exact import (
    GRational,
    HALF,
    Params,
    factorial,
    pochhammer,
    rational_str,
)
from .operators import LinOp, coordinate_op, multiply_op, pauli_op
from .poly import ScalarPoly, SpinorPoly, integer_form, lcm_of_denominators, scaled

PSI_AXES = (1, 2, 3)
UPSILON_AXES = (2, 3, 1)


def _jacobi_series_coeffs(n: int, alpha: Fraction, beta: Fraction) -> list[Fraction]:
    """Coefficient j of ((1 - x)/2)^j in the degree-n Jacobi polynomial,
    (-n)_j (n + alpha + beta + 1)_j (alpha + j + 1)_(n - j) / (n! j!), for
    j = 0..n.  Running products that divide only by j + 1 give exactly these
    values, so integer and negative parameters need no special cases."""
    tail = [Fraction(1)] * (n + 1)  # (alpha + j + 1)_(n - j)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] * (alpha + j + 1)
    head = 1 / factorial(n)  # (-n)_j (n + alpha + beta + 1)_j / (n! j!)
    out = []
    for j in range(n + 1):
        out.append(head * tail[j])
        head = head * (j - n) * (n + alpha + beta + 1 + j) / (j + 1)
    return out


def _product(a: dict, b: dict) -> dict:
    """Product of two polynomials held as {exps: (re, im)} Gaussian-integer
    terms."""
    out: dict = {}
    get = out.get
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            x, y = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            acc = get(e)
            out[e] = (x, y) if acc is None else (acc[0] + x, acc[1] + y)
    return out


def homogenized_jacobi(
    m: int, alpha, beta, big_x: ScalarPoly, big_y: ScalarPoly
) -> ScalarPoly:
    """(X + Y)^m P_m^(alpha, beta)((X - Y)/(X + Y)) as an exact polynomial.

    Substituting the argument into the series turns ((1 - w)/2)^j into
    Y^j (X + Y)^(m - j), so the result is polynomial in X and Y.  The sum
    runs by Horner's rule in X + Y on Gaussian-integer terms over one common
    denominator.  Returns zero for m < 0 (the convention used by the branch
    formulas below).
    """
    if m < 0:
        return ScalarPoly.zero()
    coeffs = _jacobi_series_coeffs(m, Fraction(alpha), Fraction(beta))
    scale = lcm_of_denominators(coeffs)
    # X + Y and Y as Gaussian-integer terms over one denominator d.
    d, terms = integer_form(chain(
        (((0, e), c) for e, c in (big_x + big_y).terms.items()),
        (((1, e), c) for e, c in big_y.terms.items()),
    ))
    s = {e: (re, im) for (which, e), re, im in terms if not which}
    y = {e: (re, im) for (which, e), re, im in terms if which}
    one = (0, 0, 0)
    total = {one: (scaled(coeffs[0], scale), 0)}
    y_power = {one: (1, 0)}
    for j in range(1, m + 1):
        total = _product(total, s)
        y_power = _product(y_power, y)
        c = scaled(coeffs[j], scale)
        if c:
            for e, (re, im) in y_power.items():
                tr, ti = total.get(e, (0, 0))
                total[e] = (tr + c * re, ti + c * im)
    den = scale * d**m
    return ScalarPoly({
        e: GRational(Fraction(re, den), Fraction(im, den)) for e, (re, im) in total.items()
    })


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


def closed_basis_pair(
    N: int,
    k: int,
    params: Params,
    axes: tuple[int, int, int] = PSI_AXES,
    even_parameter_shift: int = 0,
) -> tuple[SpinorPoly, SpinorPoly]:
    """The closed-form basis spinors (N, k, +) and (N, k, -): one operator,
    lift factor times planar factor, applied to chi+ and to chi-.  At N = k
    the lift factor is the identity, whatever the shift."""
    op = monogenic_lift(N, k, params, axes, even_parameter_shift) * planar_monogenic(
        k, params, axes
    )
    return op(SpinorPoly.unit(1)), op(SpinorPoly.unit(-1))


def closed_basis_element(
    N: int,
    k: int,
    sign: int,
    params: Params,
    axes: tuple[int, int, int] = PSI_AXES,
    even_parameter_shift: int = 0,
) -> SpinorPoly:
    """Closed-form basis spinor (N, k, sign), from `closed_basis_pair`."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    plus, minus = closed_basis_pair(N, k, params, axes, even_parameter_shift)
    return plus if sign == 1 else minus


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
