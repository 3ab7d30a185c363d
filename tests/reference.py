"""Dense references for the tests.

The Bannai-Ito generators of a representation's band data as dense
(N + 1) x (N + 1) Fraction matrices, and the dense products that build the
ladder operators and their adjoints.  `diracdunkl.birep` evaluates the same
operators as sparse matrix operators; the tests compare the two entry by
entry.

`rank` and `solve` are Gauss-Jordan elimination on the rows of a dense
matrix of field entries (Fraction or GRational), the reference for the
integer elimination of `diracdunkl.linalg`; `keyed_columns` turns such a
matrix into the reduced keyed columns that `linalg` takes.

`UnivariatePoly`, `jacobi` and `homogenized_jacobi` are the Jacobi
polynomials of the terminating hypergeometric series, each coefficient a
quotient-free product of Pochhammer symbols and the homogenized form a sum of
`ScalarPoly` products: the reference for `diracdunkl.closedform`'s integer
Jacobi factors.
"""

import math
from fractions import Fraction

from diracdunkl.exact import HALF, as_grational, factorial, pochhammer
from diracdunkl.poly import ScalarPoly


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_add(a: list[list], b: list[list]) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: list[list], b: list[list]) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scalar_matrix(n: int, value) -> list[list]:
    return [[Fraction(value) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def generator_matrices(rep):
    """Dense rational realization (K1, K2, K3) of the band data: K3
    diagonal, K1 tridiagonal and K2 = {K3, K1} - w2, whose entries are
    (lambda_i + lambda_j) K1[i][j] because K3 is diagonal."""
    n = rep.N + 1
    lam = rep.eigenvalues
    k3 = [[lam[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    k1 = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        k1[k][k] = rep.diag[k]
        if k + 1 < n:
            k1[k][k + 1] = rep.upper[k]
            k1[k + 1][k] = rep.lower[k + 1]
    w2 = rep.omega[1]
    k2 = [
        [(lam[i] + lam[j]) * k1[i][j] - (w2 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return k1, k2, k3


def ladder_matrices(generators, omega):
    """Dense K+ = (K1 + K2)(K3 - 1/2) - (w1 + w2)/2,
    K- = (K1 - K2)(K3 + 1/2) + (w1 - w2)/2 and their adjoints
    K+^dag = (K3 - 1/2)(K1 + K2) - (w1 + w2)/2,
    K-^dag = (K3 + 1/2)(K1 - K2) + (w1 - w2)/2.
    Returns (K+, K-, K+^dag, K-^dag)."""
    k1, k2, k3 = generators
    n = len(k3)
    w1, w2, _ = omega
    k3_minus = mat_sub(k3, scalar_matrix(n, HALF))
    k3_plus = mat_add(k3, scalar_matrix(n, HALF))
    plus_shift = scalar_matrix(n, (w1 + w2) / 2)
    minus_shift = scalar_matrix(n, (w1 - w2) / 2)
    return (
        mat_sub(mat_mul(mat_add(k1, k2), k3_minus), plus_shift),
        mat_add(mat_mul(mat_sub(k1, k2), k3_plus), minus_shift),
        mat_sub(mat_mul(k3_minus, mat_add(k1, k2)), plus_shift),
        mat_add(mat_mul(k3_plus, mat_sub(k1, k2)), minus_shift),
    )


def keyed_column(values: list) -> tuple:
    """The reduced column (den, {(i,): (re, im)}) of a dense vector."""
    values = [as_grational(v) for v in values]
    den = math.lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    return den, {
        (i,): (v.re.numerator * (den // v.re.denominator),
               v.im.numerator * (den // v.im.denominator))
        for i, v in enumerate(values) if v
    }


def keyed_columns(rows: list[list]) -> list[tuple]:
    """The reduced columns of a dense matrix given by its rows, row i keyed
    (i,)."""
    ncols = len(rows[0]) if rows else 0
    return [keyed_column([row[j] for row in rows]) for j in range(ncols)]


def eliminate(rows: list[list]) -> tuple[list[list], list[int]]:
    """Forward elimination to reduced row echelon form; returns pivots.
    Pivoting picks the first nonzero entry."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        recip = 1 / rows[r][c]
        pivot = rows[r] = [v * recip for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], pivot)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: list[list]) -> int:
    _, pivots = eliminate(rows)
    return len(pivots)


def solve(matrix: list[list], rhs_columns: list[list]) -> list[list]:
    """Solve matrix @ X = rhs for each right-hand-side column, for a
    consistent system of full column rank; the same ValueError messages as
    `diracdunkl.linalg.solve`."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    augmented = [
        list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(nrows)
    ]
    reduced, pivots = eliminate(augmented)
    main_pivots = [p for p in pivots if p < ncols]
    if len(main_pivots) < ncols:
        raise ValueError("singular system: matrix does not have full column rank")
    if any(p >= ncols for p in pivots):
        raise ValueError("inconsistent system")
    solutions = []
    for j in range(len(rhs_columns)):
        col = [None] * ncols
        for row_index, p in enumerate(main_pivots):
            col[p] = reduced[row_index][ncols + j]
        solutions.append(col)
    return solutions


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


def jacobi_series_coeff(n: int, j: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """Coefficient of ((1 - x)/2)^j in the degree-n Jacobi polynomial,
    written without quotients of Pochhammer symbols so that integer and
    negative parameter values need no special cases."""
    return (
        pochhammer(-n, j)
        * pochhammer(n + alpha + beta + 1, j)
        * pochhammer(alpha + j + 1, n - j)
        / (factorial(n) * factorial(j))
    )


def jacobi(n: int, alpha, beta) -> UnivariatePoly:
    """Jacobi polynomial with rational parameters, exact coefficients, from
    the terminating hypergeometric series; the degree can drop below n for
    degenerate parameters."""
    if n < 0:
        return UnivariatePoly(())
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    half_one_minus_x = UnivariatePoly((HALF, -HALF))
    out = UnivariatePoly(())
    power = UnivariatePoly.constant(1)
    for j in range(n + 1):
        c = jacobi_series_coeff(n, j, alpha, beta)
        if c:
            out = out + power.scale(c)
        power = power * half_one_minus_x
    return out


def homogenized_jacobi(m: int, alpha, beta, big_x: ScalarPoly, big_y: ScalarPoly) -> ScalarPoly:
    """(X + Y)^m P_m^(alpha, beta)((X - Y)/(X + Y)) as the series sum of
    c_j Y^j (X + Y)^(m - j), zero for m < 0."""
    if m < 0:
        return ScalarPoly.zero()
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    total = ScalarPoly.zero()
    for j in range(m + 1):
        c = jacobi_series_coeff(m, j, alpha, beta)
        if c:
            total = total + (big_y**j * (big_x + big_y) ** (m - j)).scale(c)
    return total
