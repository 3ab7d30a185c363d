"""Abstract finite-dimensional Bannai-Ito representations on N + 1 states.

A representation is stored as band data: the diagonal of K3 and the three
bands of the tridiagonal K1.  The symmetric K1 has off-diagonal entries that
are square roots, so it is only ever touched through their squares
u_k^2 = A_(k-1) C_k.  The exact relation checks use a diagonally similar
realization whose entries are the rationals A_k, V_k, C_k themselves:
`generator_ops` makes its generators matrix operators on the states (k,),
and every relation is an operator identity whose sides are evaluated
column by column on one merged graph of `operators`, so each costs O(N)
column work.  Anticommutator relations, spectra and the Casimir value are
similarity invariant, so nothing is lost.
The spectrum of K1 is certified by evaluating its characteristic polynomial
at the expected eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .ck import monogenic_basis
from .exact import HALF, Params, rational_str
from .operators import (
    IdentityReport,
    LinOp,
    anticommutator,
    bi_generator,
    casimir,
    image_columns,
    matrix_op,
    scalar_op,
)


def effective_mu(N: int, params: Params) -> Fraction:
    """Degree-dependent fourth parameter (-1)^N (N + mu1 + mu2 + mu3 + 1)."""
    return Fraction((-1) ** N) * (N + params.mu_sum + 1)


def structure_constants(N: int, params: Params) -> tuple[Fraction, Fraction, Fraction]:
    """Constants (w1, w2, w3) of the anticommutation relations on degree N."""
    mu_n = effective_mu(N, params)
    m1, m2, m3 = params.mu1, params.mu2, params.mu3
    return (
        2 * m2 * m3 + 2 * m1 * mu_n,
        2 * m3 * m1 + 2 * m2 * mu_n,
        2 * m1 * m2 + 2 * m3 * mu_n,
    )


def casimir_value(N: int, params: Params) -> Fraction:
    value = N + params.mu_sum + 1
    return (
        value * value
        + params.mu1**2
        + params.mu2**2
        + params.mu3**2
        - Fraction(1, 4)
    )


def k3_eigenvalue(k: int, params: Params) -> Fraction:
    return Fraction((-1) ** k) * (k + params.mu1 + params.mu2 + HALF)


def k1_eigenvalue(s: int, params: Params) -> Fraction:
    # Cyclic invariance: same spectrum formula with parameters shifted.
    return Fraction((-1) ** s) * (s + params.mu2 + params.mu3 + HALF)


@dataclass(frozen=True)
class LadderData:
    """Squared norms of the raising and lowering ladder actions, k = 0..N+1."""

    plus_norms: tuple[Fraction, ...]
    minus_norms: tuple[Fraction, ...]


def ladder_norms(N: int, params: Params) -> LadderData:
    if N < 0:
        raise ValueError("N must be >= 0")
    mu_n = effective_mu(N, params)
    m1, m2, m3 = params.mu1, params.mu2, params.mu3
    plus = []
    minus = []
    for k in range(N + 2):
        plus.append(
            -Fraction(k)
            * (k + 2 * m1 + 2 * m2)
            * (k + m1 + m2 + m3 + mu_n)
            * (k + m1 + m2 - m3 - mu_n)
        )
        minus.append(
            -(k + 2 * m1)
            * (k + 2 * m2)
            * (k + m1 + m2 - m3 + mu_n)
            * (k + m1 + m2 + m3 - mu_n)
        )
    return LadderData(tuple(plus), tuple(minus))


def _upper_coeff(k: int, N: int, params: Params) -> Fraction:
    mu_n = effective_mu(N, params)
    m1, m2, m3 = params.mu1, params.mu2, params.mu3
    if k % 2 == 0:
        return (
            (k + 2 * m2 + 1)
            * (k + m1 + m2 + m3 - mu_n + 1)
            / (2 * (k + m1 + m2 + 1))
        )
    return (
        (k + 2 * m1 + 2 * m2 + 1)
        * (k + m1 + m2 + m3 + mu_n + 1)
        / (2 * (k + m1 + m2 + 1))
    )


def _lower_coeff(k: int, N: int, params: Params) -> Fraction:
    if k == 0:
        return Fraction(0)
    mu_n = effective_mu(N, params)
    m1, m2, m3 = params.mu1, params.mu2, params.mu3
    if k % 2 == 0:
        return -Fraction(k) * (k + m1 + m2 - m3 - mu_n) / (2 * (k + m1 + m2))
    return -(k + 2 * m1) * (k + m1 + m2 - m3 + mu_n) / (2 * (k + m1 + m2))


@dataclass(frozen=True)
class RepMatrices:
    """Band data of the (N + 1)-dimensional representation.

    K3 is diagonal with entries `eigenvalues`.  K1, in the rational
    realization, is tridiagonal with diagonal `diag`, superdiagonal `upper`
    and subdiagonal `lower`; `u_squared` holds the products of opposite
    off-diagonal entries.  `generator_ops` builds the generators.
    """

    N: int
    params: Params
    mu_n: Fraction
    eigenvalues: tuple[Fraction, ...]  # diagonal of the third generator
    upper: tuple[Fraction, ...]  # A_k, k = 0..N (A_N = 0)
    lower: tuple[Fraction, ...]  # C_k, k = 0..N (C_0 = 0)
    diag: tuple[Fraction, ...]  # V_k, k = 0..N
    u_squared: tuple[Fraction, ...]  # A_(k-1) C_k, k = 1..N
    omega: tuple[Fraction, Fraction, Fraction]
    casimir: Fraction

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "mu": self.params.mu_strings(),
            "muN": rational_str(self.mu_n),
            "lambda": [rational_str(v) for v in self.eigenvalues],
            "A": [rational_str(v) for v in self.upper],
            "C": [rational_str(v) for v in self.lower],
            "V": [rational_str(v) for v in self.diag],
            "omega": [rational_str(v) for v in self.omega],
            "casimir": rational_str(self.casimir),
        }


def rep_matrices(N: int, params: Params) -> RepMatrices:
    if N < 0:
        raise ValueError("N must be >= 0")
    n = N + 1
    upper = tuple(_upper_coeff(k, N, params) for k in range(n))
    lower = tuple(_lower_coeff(k, N, params) for k in range(n))
    base = params.mu2 + params.mu3 + HALF
    return RepMatrices(
        N=N,
        params=params,
        mu_n=effective_mu(N, params),
        eigenvalues=tuple(k3_eigenvalue(k, params) for k in range(n)),
        upper=upper,
        lower=lower,
        diag=tuple(base - upper[k] - lower[k] for k in range(n)),
        u_squared=tuple(upper[k - 1] * lower[k] for k in range(1, n)),
        omega=structure_constants(N, params),
        casimir=casimir_value(N, params),
    )


def generator_ops(rep: RepMatrices) -> tuple[LinOp, LinOp, LinOp]:
    """Rational realization (K1, K2, K3) of the band data as operators on
    the states (k,), k = 0..N: K3 diagonal, K1 tridiagonal and
    K2 = {K3, K1} - w2, whose entries are (lambda_i + lambda_j) K1[i][j]
    because K3 is diagonal."""
    lam = rep.eigenvalues
    k1 = {(k, k): rep.diag[k] for k in range(rep.N + 1)}
    for k in range(rep.N):
        k1[k, k + 1] = rep.upper[k]
        k1[k + 1, k] = rep.lower[k + 1]
    w2 = rep.omega[1]
    k2 = {
        (i, j): (lam[i] + lam[j]) * value - (w2 if i == j else 0)
        for (i, j), value in k1.items()
    }
    k3 = {(k, k): value for k, value in enumerate(lam)}
    return tuple(
        matrix_op({((i,), (j,)): value for (i, j), value in entries.items()})
        for entries in (k1, k2, k3)
    )


def raising_norm_sq(lam: Fraction, N: int, params: Params) -> Fraction:
    """Squared norm of the raising ladder action on a state of eigenvalue lam."""
    w1, w2, w3 = structure_constants(N, params)
    q = casimir_value(N, params)
    return (lam - HALF) ** 2 * (q - lam * lam + lam + w3) - (w1 + w2) ** 2 / 4


def lowering_norm_sq(lam: Fraction, N: int, params: Params) -> Fraction:
    w1, w2, w3 = structure_constants(N, params)
    q = casimir_value(N, params)
    return (lam + HALF) ** 2 * (q - lam * lam - lam - w3) - (w1 - w2) ** 2 / 4


def ladder_ops(generators, omega) -> tuple[LinOp, LinOp, LinOp, LinOp]:
    """Raising and lowering combinations of the generators (K1, K2, K3),
    K+ = (K1 + K2)(K3 - 1/2) - (w1 + w2)/2 and
    K- = (K1 - K2)(K3 + 1/2) + (w1 - w2)/2, and their adjoints
    K+^dag = (K3 - 1/2)(K1 + K2) - (w1 + w2)/2 and
    K-^dag = (K3 + 1/2)(K1 - K2) + (w1 - w2)/2.
    Returns (K+, K-, K+^dag, K-^dag)."""
    k1, k2, k3 = generators
    w1, w2, _ = omega
    k3_minus, k3_plus = k3 - scalar_op(HALF), k3 + scalar_op(HALF)
    plus_shift, minus_shift = scalar_op((w1 + w2) / 2), scalar_op((w1 - w2) / 2)
    return (
        (k1 + k2) * k3_minus - plus_shift,
        (k1 - k2) * k3_plus + minus_shift,
        k3_minus * (k1 + k2) - plus_shift,
        k3_plus * (k1 - k2) + minus_shift,
    )


def char_poly_at(rep: RepMatrices, x: Fraction) -> Fraction:
    """det(x I - K1) from the band data, by the leading-principal-minor
    recurrence p_j = (x - V_j) p_(j-1) - A_(j-1) C_j p_(j-2)."""
    prev, current = Fraction(0), Fraction(1)
    for d, u2 in zip(rep.diag, (0,) + rep.u_squared):
        prev, current = current, (x - d) * current - u2 * prev
    return current


def _spectrum_factorization(rep: RepMatrices) -> Fraction | None:
    """Certify that the expected eigenvalues are the whole spectrum of K1.

    The characteristic polynomial is monic of degree N + 1, so vanishing at
    N + 1 distinct expected eigenvalues is its factorization over them.
    Returns None on success, or the first expected eigenvalue that is not a
    root (the first that sequential deflation would fail at).
    """
    n = rep.N + 1
    expected = [k1_eigenvalue(s, rep.params) for s in range(n)]
    if len(set(expected)) != n:
        return expected[0]
    return next((lam for lam in expected if char_poly_at(rep, lam)), None)


def _report(name: str, N: int, basis_size: int, check: str | None = None,
            detail: dict | None = None) -> IdentityReport:
    """Single-degree report: a pass without `check`, else a failure whose
    counterexample is {"check": check, **detail}."""
    return IdentityReport(
        name=name,
        degree_lo=N,
        degree_hi=N,
        basis_size=basis_size,
        status="pass" if check is None else "fail",
        counterexample=None if check is None else {"check": check, **(detail or {})},
    )


def _entries(column: tuple) -> dict[int, Fraction]:
    """The entries {i: value} of a real image column on the states (i,)."""
    den, entries = column
    return {i: Fraction(re, den) for (i,), (re, _) in entries.items()}


def _first_difference(lhs: list, rhs: list) -> tuple | None:
    """The row-major first entry (i, j, lhs_ij, rhs_ij) at which two lists
    of real image columns on the states differ, or None."""
    return min((
        (i, j, left.get(i, 0), right.get(i, 0))
        for j, (left, right) in enumerate(zip(map(_entries, lhs), map(_entries, rhs)))
        for i in left.keys() | right.keys() if left.get(i, 0) != right.get(i, 0)
    ), default=None)


def verify_rep(N: int, params: Params, *, omega3_shift: int = 0) -> IdentityReport:
    """Exact verification of the representation data on degree N.

    Checks the anticommutator relations {K1,K2} and {K2,K3} ({K3,K1} =
    K2 + w2 defines K2), the Casimir value, truncation, positivity and
    irreducibility of the tridiagonal data, the ladder-norm identities and
    the full spectrum factorization of the similar generator.  omega3_shift
    perturbs the expected structure constant so the suite can demonstrate
    sensitivity.
    """
    rep = rep_matrices(N, params)
    n = N + 1
    w1, w2, w3 = rep.omega
    w3_expected = w3 + omega3_shift
    report = partial(_report, f"bannai-ito representation N={N}", N, n)

    k1, k2, k3 = generators = generator_ops(rep)
    plus, minus, plus_dag, minus_dag = ladder_ops(generators, rep.omega)
    k3_minus, k3_plus = k3 - scalar_op(HALF), k3 + scalar_op(HALF)
    k1_k2_squares = k1 * k1 + k2 * k2
    k3_w3 = k3 + scalar_op(w3)
    relations = [
        ("{K1,K2} = K3 + w3", anticommutator(k1, k2), k3 + scalar_op(w3_expected)),
        ("{K2,K3} = K1 + w1", anticommutator(k2, k3), k1 + scalar_op(w1)),
        ("K1^2 + K2^2 + K3^2 = q_N", k1_k2_squares + k3 * k3, scalar_op(rep.casimir)),
    ]
    # The adjoint products reduce to diagonal matrices whose entries are
    # the ladder norms, with the parity bookkeeping of the eigenvalue string.
    ladder_relations = [
        ("{K3, K+} = K+", anticommutator(k3, plus), plus),
        ("{K3, K-} = -K-", anticommutator(k3, minus), -minus),
        ("adjoint product identity for K+", plus_dag * plus,
         k3_minus * k3_minus * (k1_k2_squares + k3_w3)
         - scalar_op((w1 + w2) ** 2 / 4)),
        ("adjoint product identity for K-", minus_dag * minus,
         k3_plus * k3_plus * (k1_k2_squares - k3_w3)
         - scalar_op((w1 - w2) ** 2 / 4)),
    ]
    columns = image_columns(
        [op for _, lhs, rhs in relations + ladder_relations for op in (lhs, rhs)],
        [(k,) for k in range(n)],
    )
    sides = list(zip(columns[::2], columns[1::2]))
    for (label, _, _), (lhs, rhs) in zip(relations, sides):
        entry = _first_difference(lhs, rhs)
        if entry is not None:
            i, j, left, right = entry
            return report(label, {
                "entry": [i, j],
                "lhs": rational_str(left),
                "rhs": rational_str(right),
            })

    if rep.upper[N]:
        return report("truncation A_N = 0", {"value": rational_str(rep.upper[N])})
    if rep.lower[0]:
        return report("truncation C_0 = 0", {"value": rational_str(rep.lower[0])})
    for k in range(1, n):
        if rep.u_squared[k - 1] <= 0:
            return report("positivity A_(k-1) C_k > 0", {
                "k": k, "value": rational_str(rep.u_squared[k - 1]),
            })
    for k in range(N):
        if not rep.upper[k]:
            return report("irreducibility A_k != 0", {"k": k})
    for k in range(1, n):
        if not rep.lower[k]:
            return report("irreducibility C_k != 0", {"k": k})

    ladder = ladder_norms(N, params)
    if ladder.plus_norms[0]:
        return report("raising norm vanishes at k = 0")
    for k in range(1, n):
        if ladder.plus_norms[k] <= 0 or ladder.minus_norms[k] <= 0:
            return report("ladder norm positivity", {"k": k})
    boundary = ladder.plus_norms[N + 1] if N % 2 else ladder.minus_norms[N + 1]
    if boundary:
        return report("ladder truncation at k = N + 1", {
            "value": rational_str(boundary),
        })

    for (label, _, _), (lhs, rhs) in zip(ladder_relations, sides[len(relations):]):
        if lhs != rhs:
            return report(label)
    lhs_plus, lhs_minus = (lhs for lhs, _ in sides[-2:])
    for k in range(n):
        expect_plus = ladder.plus_norms[k if k % 2 == 0 else k + 1]
        expect_minus = ladder.minus_norms[k + 1 if k % 2 == 0 else k]
        if _entries(lhs_plus[k]).get(k, 0) != expect_plus:
            return report("raising norm parity", {"k": k})
        if _entries(lhs_minus[k]).get(k, 0) != expect_minus:
            return report("lowering norm parity", {"k": k})

    # Admissibility windows for the lowest eigenvalue.
    lam0 = k3_eigenvalue(0, params)
    m1, m2, m3 = params.mu1, params.mu2, params.mu3
    upper1 = N + m1 + m2 + (2 * m3 + 1 if N % 2 == 0 else 1)
    upper2 = N + m1 + m2 + (1 if N % 2 == 0 else 2 * m3 + 1)
    if not (m1 + m2 <= abs(lam0 - HALF) <= upper1):
        return report("admissibility window (raising side)")
    if not (abs(m1 - m2) <= abs(lam0 + HALF) <= upper2):
        return report("admissibility window (lowering side)")

    bad = _spectrum_factorization(rep)
    if bad is not None:
        return report("spectrum factorization", {"eigenvalue": rational_str(bad)})
    return report()


def match_function_realization(N: int, params: Params) -> IdentityReport:
    """Expand the operator realization of the generators over the monogenic
    basis and compare against the abstract matrix data, exactly: K3 and the
    Casimir on each element, K1 entry by entry up to the diagonal
    similarity, and K2 through the invariants of that similarity."""
    rep = rep_matrices(N, params)
    basis = monogenic_basis(N, params)
    elements = basis.elements
    report = partial(
        _report, f"function realization of the representation N={N}", N, len(elements)
    )

    k3_op = bi_generator(params, 3)
    q_op = casimir(params)

    # The expansions of K1 and K2 on each element, from one solve.
    expansions = linalg.solve(
        [el.poly.column for el in elements],
        [op(el.poly).column for op in (bi_generator(params, 1), bi_generator(params, 2))
         for el in elements],
    )
    k2_expansions = expansions[len(elements):]

    # The generators commute with the sign-sector involution, whose
    # eigenvalue on element (k, sign) is sign * (-1)^(N - k); the invariant
    # chains therefore alternate the +/- label along k.
    def sector(el) -> int:
        return el.sign * (-1) ** (N - el.k)

    index = {(el.k, el.sign): pos for pos, el in enumerate(elements)}

    def off_diagonal(check: str, coefs: list, products) -> IdentityReport | None:
        for eps in (1, -1):
            for k in range(N):
                sign_here = eps * (-1) ** (N - k)
                sign_next = eps * (-1) ** (N - k - 1)
                up = coefs[index[(k, sign_here)]][index[(k + 1, sign_next)]]
                down = coefs[index[(k + 1, sign_next)]][index[(k, sign_here)]]
                if up * down != products[k]:
                    return report(check, {
                        "k": k,
                        "sector": eps,
                        "got": str(up * down),
                        "expected": rational_str(products[k]),
                    })
        return None

    for pos, el in enumerate(elements):
        # Eigenvalue checks for the diagonal generator and the Casimir.
        lam = k3_eigenvalue(el.k, params)
        if k3_op(el.poly) != el.poly.scale(lam):
            return report("K3 eigenvalue", {"k": el.k, "sign": el.sign})
        if q_op(el.poly) != el.poly.scale(rep.casimir):
            return report("casimir eigenvalue", {"k": el.k, "sign": el.sign})
        coefs = expansions[pos]
        for other_pos, value in enumerate(coefs):
            other = elements[other_pos]
            active = sector(other) == sector(el) and abs(other.k - el.k) <= 1
            if value and not active:
                return report("tridiagonal support", {
                    "from": [el.k, el.sign], "to": [other.k, other.sign],
                })
        if coefs[pos] != rep.diag[el.k]:
            return report("diagonal coefficient", {
                "k": el.k,
                "sign": el.sign,
                "got": str(coefs[pos]),
                "expected": rational_str(rep.diag[el.k]),
            })

    failure = off_diagonal("off-diagonal product", expansions, rep.u_squared)
    if failure:
        return failure
    # K2 = {K3, K1} - w2 in the diagonally similar realization, so its
    # similarity invariants are the diagonal 2 lambda_k V_k - w2 and the
    # off-diagonal products (lambda_k + lambda_(k+1))^2 u_(k+1)^2.
    eig = rep.eigenvalues
    for pos, el in enumerate(elements):
        expected = 2 * eig[el.k] * rep.diag[el.k] - rep.omega[1]
        if k2_expansions[pos][pos] != expected:
            return report("K2 diagonal coefficient", {
                "k": el.k,
                "sign": el.sign,
                "got": str(k2_expansions[pos][pos]),
                "expected": rational_str(expected),
            })
    products = [(eig[k] + eig[k + 1]) ** 2 * u2 for k, u2 in enumerate(rep.u_squared)]
    return off_diagonal("K2 off-diagonal product", k2_expansions, products) or report()
