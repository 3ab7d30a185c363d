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
Jacobi factors.  `scalar_column` turns a `ScalarPoly` into the scalar column
`(den, {exps: (re, im)})` that `closedform` and `operators.multiply_op` take.

`gamma2`, `raising_norm_sq` and `lowering_norm_sq` are band quantities only
the tests use.  `monogenic_element_checks`, `cycled_family_checks` and
`function_realization` apply each operator to one basis element at a time
and compare with the scaled element, or with the explicit band sum over its
sign sector: the reference for the element checks that `diracdunkl` runs as
operator identities over element keys.

`fischer_components` is the Fischer decomposition by one linear solve on the
columns x^k M over the monogenic bases: the reference for the
back-substitution of `diracdunkl.ck.fischer_decompose`.  `extension_tower`
builds a monogenic basis by the two Cauchy-Kovalevskaia extensions of
`diracdunkl.ck`: the reference for the closed form of `ck.monogenic_basis`.

`evaluate` walks a `LinOp` tree as it was built, with no merging and no
memo, and reduces the image column of every node with `poly.combine`:
the reference for the merged graphs of `diracdunkl.operators`, which fix one
denominator per node and reduce only at a root.  It runs on its own
primitive kernels (`kernel`), over (sign, exps) keys, not on the
packed-key kernels of `operators`.  `first_failures` and `image_columns`
are the checker and the batch evaluator on top of it.
"""

import math
from fractions import Fraction

from diracdunkl import birep, ck, closedform, linalg, operators
from diracdunkl.exact import HALF, as_grational, factorial, pochhammer
from diracdunkl.poly import (
    ScalarPoly,
    SpinorPoly,
    combine,
    integer_form,
    lcm_of_denominators,
    scaled,
)


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


def scalar_column(p: ScalarPoly) -> tuple:
    """The reduced column (den, {exps: (re, im)}) of a scalar polynomial."""
    den, entries = integer_form(p.terms.items())
    return (den, {exps: (re, im) for exps, re, im in entries})


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


# ---------------------------------------------------------------------------
# Test-only band quantities.

def gamma2(params) -> Fraction:
    """The conformal constant mu1 + mu2 + 1 of the planar setting."""
    return params.mu1 + params.mu2 + 1


def raising_norm_sq(lam: Fraction, N: int, params) -> Fraction:
    """Squared norm of the raising ladder action on a state of eigenvalue lam."""
    w1, w2, w3 = birep.structure_constants(N, params)
    q = birep.casimir_value(N, params)
    return (lam - HALF) ** 2 * (q - lam * lam + lam + w3) - (w1 + w2) ** 2 / 4


def lowering_norm_sq(lam: Fraction, N: int, params) -> Fraction:
    w1, w2, w3 = birep.structure_constants(N, params)
    q = birep.casimir_value(N, params)
    return (lam + HALF) ** 2 * (q - lam * lam - lam - w3) - (w1 - w2) ** 2 / 4


# ---------------------------------------------------------------------------
# Element checks, one basis element at a time: op(el.poly) against
# el.poly.scale(lambda).  The eigenvalues and bases are looked up through
# their modules, so a monkeypatched defect reaches both these loops and the
# library.

def _check(name: str, counterexample: dict | None) -> dict:
    status = "pass" if counterexample is None else "fail"
    return {"name": name, "status": status, "counterexample": counterexample}


def _element(N: int, el) -> dict:
    return {"N": N, "k": el.k, "sign": "+" if el.sign == 1 else "-"}


def monogenic_element_checks(params, N: int) -> list[dict]:
    """The kernel and the three eigenvalue checks of the degree-N section of
    `suites.suite_monogenic`, in its order, each reporting its first failing
    basis element."""
    elements = ck.monogenic_basis(N, params).elements
    dd = operators.dirac(params)
    scas = operators.spherical_dirac(params) + operators.scalar_op(1)
    gen3 = operators.bi_generator(params, 3)
    inv3 = operators.involution(3)
    eig = N + params.mu_sum + 1
    checks = []
    for name, ok in (
        (f"monogenic N={N}: kernel of the Dirac operator", lambda el: not dd(el.poly)),
        (f"monogenic N={N}: degree eigenvalue",
         lambda el: scas(el.poly) == el.poly.scale(eig)),
        (f"monogenic N={N}: third generator eigenvalue",
         lambda el: gen3(el.poly) == el.poly.scale(birep.k3_eigenvalue(el.k, params))),
        (f"monogenic N={N}: sign sector eigenvalue",
         lambda el: inv3(el.poly) == el.poly.scale(birep.z3_eigenvalue(N, el.k, el.sign))),
    ):
        bad = next((el for el in elements if not ok(el)), None)
        checks.append(_check(name, None if bad is None else _element(N, bad)))
    return checks


def cycled_family_checks(params, n_max: int) -> list[dict]:
    """The cycled-family checks of `suites.suite_orthogonality`: per degree,
    the first upsilon wavefunction that fails any of its three eigenvalue
    equations."""
    scas = operators.spherical_dirac(params) + operators.scalar_op(1)
    gen1 = operators.bi_generator(params, 1)
    inv3 = operators.involution(3)
    checks = []
    for N in range(n_max + 1):
        eig = N + params.mu_sum + 1
        bad = next((
            u for u in closedform.wavefunctions(N, params, "upsilon")
            if scas(u.poly) != u.poly.scale(eig)
            or gen1(u.poly) != u.poly.scale(birep.k1_eigenvalue(u.k, params))
            or inv3(u.poly) != u.poly.scale(birep.z3_eigenvalue(N, u.k, u.sign))
        ), None)
        checks.append(_check(
            f"cycled family eigenvalue equations N={N}",
            None if bad is None else {
                "N": N, "s": bad.k, "sign": "+" if bad.sign == 1 else "-",
            },
        ))
    return checks


def function_realization(N: int, params) -> dict:
    """The JSON report of `birep.match_function_realization`, with each
    operator applied to one element at a time and compared with its
    expected image: the scaled element for K3, Z3 and the Casimir, and the
    explicit band sums over the sign sector for K1 and K2,
    K1 el_k = C_k el_(k-1) + V_k el_k + A_k el_(k+1) and
    K2 el_k = (l_k + l_(k-1)) C_k el_(k-1) + (2 l_k V_k - w2) el_k
              + (l_k + l_(k+1)) A_k el_(k+1),
    where the neighbours el_(k+-1) of the element (k, sign) have the keys
    (k +- 1, -sign)."""
    rep = birep.rep_matrices(N, params)
    elements = birep.monogenic_basis(N, params).elements
    polys = {(el.k, el.sign): el.poly for el in elements}
    lam = rep.eigenvalues

    def report(check=None, el=None):
        return {
            "name": f"function realization of the representation N={N}",
            "degrees": [N, N],
            "basis_size": len(elements),
            "status": "pass" if check is None else "fail",
            "counterexample": None if check is None else {
                "check": check, "k": el.k, "sign": el.sign,
            },
        }

    def band(el, weight):
        """The band sum of el with each entry of K1 scaled by weight(k, j)
        for the entry from state k to state j."""
        k = el.k
        out = el.poly.scale(weight(k, k) * rep.diag[k])
        if k > 0:
            out = out + polys[k - 1, -el.sign].scale(weight(k, k - 1) * rep.lower[k])
        if k < N:
            out = out + polys[k + 1, -el.sign].scale(weight(k, k + 1) * rep.upper[k])
        return out

    checks = [
        ("K3 eigenvalue", birep.bi_generator(params, 3), lambda el: el.poly.scale(lam[el.k])),
        ("Z3 eigenvalue", operators.involution(3),
         lambda el: el.poly.scale(birep.z3_eigenvalue(N, el.k, el.sign))),
        ("casimir eigenvalue", birep.casimir(params), lambda el: el.poly.scale(rep.casimir)),
        ("K1 E = E rho(K1)^T", birep.bi_generator(params, 1),
         lambda el: band(el, lambda k, j: 1)),
        ("K2 E = E rho(K2)^T", birep.bi_generator(params, 2),
         lambda el: band(el, lambda k, j: lam[k] + lam[j]) - el.poly.scale(rep.omega[1])),
    ]
    zero = next((el for el in elements if not el.poly), None)
    if zero is not None:
        return report("nonzero element", zero)
    for check, op, expected in checks:
        bad = next((el for el in elements if op(el.poly) != expected(el)), None)
        if bad is not None:
            return report(check, bad)
    return report()


def fischer_components(f, params) -> tuple:
    """The components M_(N-k), k = 0..N, of a homogeneous f of degree N
    with f = sum_k x^k M_(N-k), from one exact linear solve on the columns
    x^k M over the degree-(N-k) monogenic bases: the reference for the
    back-substitution of `ck.fischer_decompose`."""
    N = f.homogeneous_degree()
    bases = [ck.monogenic_basis(N - k, params).elements for k in range(N + 1)]
    columns = [
        (operators.x_underline() ** k)(element.poly).column
        for k in range(N + 1) for element in bases[k]
    ]
    (solution,) = linalg.solve(columns, [f.column])
    coefs = iter(solution)
    parts = []
    for elements in bases:
        part = SpinorPoly.zero()
        for element, coef in zip(elements, coefs):
            part = part + element.poly.scale(coef)
        parts.append(part)
    return tuple(parts)


def extension_tower(N: int, params) -> list:
    """The degree-N monogenic basis polynomials in basis order (k ascending,
    + before -), by the extension tower: element (k, sign) is
    `ck.ck_extend_x3` of xt^(N-k) times `ck.ck_extend_x2` of x1^k chi_sign.
    The reference for the closed form that `ck.monogenic_basis` uses."""
    seeds = [SpinorPoly.monomial((k, 0, 0), sign) for k in range(N + 1) for sign in (1, -1)]
    xt = operators.x_underline((1, 2))
    planar = ck.ck_extend_x2(seeds, params)
    return ck.ck_extend_x3([(xt ** (N - i // 2))(p) for i, p in enumerate(planar)], params)


# ---------------------------------------------------------------------------
# Operator trees evaluated node by node, every image reduced.

_UNIT = (1, 0)
_EMPTY: dict = {}
_SIGNS = {"add": (1, 1), "sub": (1, -1), "neg": (-1,)}


def _shift(exps: tuple, i: int, delta: int) -> tuple:
    low = list(exps)
    low[i] += delta
    return tuple(low)


def kernel(tag: tuple):
    """(den, image) for a primitive tag, where image(key) is the integer
    entry dict {key': (re, im)} of the image of the basis vector of key: the
    sum of (re + i im) / den times the basis vector of key'.  The spinor
    kernels take monomial-spinor keys (sign, exps), not the packed keys of
    `operators`."""
    name = tag[0]
    if name == "scalar":
        value = tag[1]
        den = lcm_of_denominators((value.re, value.im))
        entry = (scaled(value.re, den), scaled(value.im, den))
        if entry == (0, 0):
            return 1, lambda key: _EMPTY
        return den, lambda key: {key: entry}
    if name == "matrix":
        columns: dict = {}
        for (column, row), re, im in tag[2]:
            columns.setdefault(column, {})[row] = (re, im)
        return tag[1], lambda key: columns.get(key, _EMPTY)
    if name == "pauli":
        index = tag[1]
        if index == 1:
            return 1, lambda key: {(-key[0], key[1]): _UNIT}
        if index == 2:  # chi+ -> i chi-, chi- -> -i chi+
            return 1, lambda key: {(-key[0], key[1]): (0, key[0])}
        return 1, lambda key: {key: (key[0], 0)}
    if name == "reflect":
        i = tag[1] - 1
        return 1, lambda key: {key: (-1 if key[1][i] % 2 else 1, 0)}
    if name == "euler":
        def euler_image(key):
            d = sum(key[1])
            return {key: (d, 0)} if d else _EMPTY

        return 1, euler_image
    if name == "dunkl":
        # T(x^a) = a x^(a-1) for even a, (a + 2 mu) x^(a-1) for odd a.
        i, mu = tag[1] - 1, tag[2]
        p, q = mu.numerator, mu.denominator

        def dunkl_image(key):
            sign, exps = key
            a = exps[i]
            factor = a * q if a % 2 == 0 else a * q + 2 * p
            return {(sign, _shift(exps, i, -1)): (factor, 0)} if factor else _EMPTY

        return q, dunkl_image
    if name == "laplace_explicit":
        mus = tag[1:]
        den = lcm_of_denominators(mus)
        nums = [scaled(mu, den) for mu in mus]

        def laplace_image(key):
            sign, exps = key
            out = {}
            for i in range(3):
                a = exps[i]
                if a < 2:
                    continue
                factor = a * (a - 1) * den + nums[i] * (2 * a - (1 - (-1) ** a))
                if factor:
                    out[sign, _shift(exps, i, -2)] = (factor, 0)
            return out

        return den, laplace_image
    if name == "multiply":
        den, terms = tag[1], tag[2]

        def multiply_image(key):
            sign, exps = key
            return {
                (sign, (exps[0] + e[0], exps[1] + e[1], exps[2] + e[2])): (re, im)
                for e, re, im in terms
            }

        return den, multiply_image
    raise ValueError(f"unknown primitive {name!r}")


def evaluate(op, column: tuple) -> tuple:
    """The reduced image column of op on a reduced column, from the
    primitives' kernels up through the tree of op, one node at a time."""
    kind, args = op.kind, op.operands
    if kind == "primitive":
        den, image = kernel(op.payload)
        d, entries = column
        return combine([(re, im, (1, image(key))) for key, (re, im) in entries.items()], d * den)
    if kind == "compose":
        return evaluate(args[0], evaluate(args[1], column))
    if kind == "scale":
        c = op.payload
        den = lcm_of_denominators((c.re, c.im))
        return combine([(scaled(c.re, den), scaled(c.im, den), evaluate(args[0], column))], den)
    return combine([(sign, 0, evaluate(arg, column)) for sign, arg in zip(_SIGNS[kind], args)], 1)


def image_columns(ops: list, keys: list) -> list[list[tuple]]:
    """result[i][j] is ops[i] applied to the basis vector of keys[j]."""
    return [[evaluate(op, (1, {key: (1, 0)})) for key in keys] for op in ops]


def first_failures(pairs: list, keys: list) -> list:
    """For each (lhs, rhs) pair, (i, lhs column, rhs column) at the first
    position i whose key the sides map to different columns, or None."""
    out = []
    for lhs, rhs in pairs:
        failure = None
        for position, key in enumerate(keys):
            unit = (1, {key: (1, 0)})
            left, right = evaluate(lhs, unit), evaluate(rhs, unit)
            if left != right:
                failure = (position, left, right)
                break
        out.append(failure)
    return out
