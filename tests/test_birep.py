import dataclasses
from fractions import Fraction

import pytest
from conftest import mu_triples

from diracdunkl.birep import (
    casimir_value,
    char_poly_at,
    effective_mu,
    generator_matrices,
    k1_eigenvalue,
    k3_eigenvalue,
    ladder_matrices,
    ladder_norms,
    lowering_norm_sq,
    match_function_realization,
    raising_norm_sq,
    rep_matrices,
    structure_constants,
    verify_rep,
)
from diracdunkl import birep, linalg
from diracdunkl.exact import HALF, Params

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
ZERO = Params(0, 0, 0)


def test_effective_mu_and_constants():
    assert effective_mu(2, Params(HALF, HALF, HALF)) == Fraction(9, 2)
    assert effective_mu(1, ZERO) == -2
    w1, w2, w3 = structure_constants(2, P)
    mu_n = effective_mu(2, P)
    assert w3 == 2 * P.mu1 * P.mu2 + 2 * P.mu3 * mu_n
    assert w1 == 2 * P.mu2 * P.mu3 + 2 * P.mu1 * mu_n
    assert w2 == 2 * P.mu3 * P.mu1 + 2 * P.mu2 * mu_n


def test_ladder_norm_examples():
    for N in (0, 1, 3):
        for params in (ZERO, P):
            assert ladder_norms(N, params).plus_norms[0] == 0
    half = Params(HALF, HALF, HALF)
    assert ladder_norms(2, half).minus_norms[1] == 48
    assert ladder_norms(1, ZERO).plus_norms[2] == 0


def test_ladder_truncation_parity():
    for N in range(5):
        for params in (P, ZERO):
            data = ladder_norms(N, params)
            if N % 2:
                assert data.plus_norms[N + 1] == 0
            else:
                assert data.minus_norms[N + 1] == 0
            for k in range(1, N + 1):
                assert data.plus_norms[k] > 0
                assert data.minus_norms[k] > 0


def test_rep_matrices_first_degree_flat():
    rep = rep_matrices(1, ZERO)
    assert rep.eigenvalues == (HALF, Fraction(-3, 2))
    assert rep.upper == (Fraction(3, 2), 0)
    assert rep.lower == (0, HALF)
    assert rep.diag == (-1, 0)
    assert rep.u_squared == (Fraction(3, 4),)
    # Exact eigenvalues of the similar tridiagonal generator: the values of
    # det(x I - K1) are those of the monic quadratic x^2 + x - 3/4.
    for x in (0, 1, Fraction(-5, 2)):
        assert char_poly_at(rep, x) == x * x + x - Fraction(3, 4)
    for s in (0, 1):
        assert char_poly_at(rep, k1_eigenvalue(s, ZERO)) == 0


def test_rep_matrices_scalar_case():
    rep = rep_matrices(0, P)
    k1, k2, k3 = generator_matrices(rep)
    assert k3[0][0] == P.mu1 + P.mu2 + HALF
    assert k1[0][0] == P.mu2 + P.mu3 + HALF
    assert k2[0][0] == P.mu3 + P.mu1 + HALF
    assert rep.casimir == (P.mu_sum + 1) ** 2 + P.mu1**2 + P.mu2**2 + P.mu3**2 - Fraction(1, 4)


def test_casimir_value_zero_parameters():
    assert casimir_value(0, ZERO) == Fraction(3, 4)


def test_verify_rep_passes():
    for params in mu_triples(3, seed=71) + [ZERO, P]:
        for N in range(5):
            report = verify_rep(N, params)
            assert report.passed, (N, params, report.counterexample)


def test_verify_rep_detects_shifted_constant():
    report = verify_rep(3, P, omega3_shift=1)
    assert not report.passed
    assert report.counterexample["check"] == "{K1,K2} = K3 + w3"


def test_ladder_matrix_anticommutators():
    rep = rep_matrices(3, P)
    generators = generator_matrices(rep)
    plus, minus, _, _ = ladder_matrices(generators, rep.omega)
    k3 = generators[2]
    assert linalg.mat_equal(linalg.mat_anticommutator(k3, plus), plus)
    assert linalg.mat_equal(
        linalg.mat_anticommutator(k3, minus), linalg.mat_scale(minus, Fraction(-1))
    )


def test_norm_parity_values():
    # Frozen case N = 2: raising annihilates the lowest state, lowering has
    # squared norm 340/9 there.
    lam0 = k3_eigenvalue(0, P)
    assert raising_norm_sq(lam0, 2, P) == 0
    assert lowering_norm_sq(lam0, 2, P) == Fraction(340, 9)
    assert ladder_norms(2, P).minus_norms[1] == Fraction(340, 9)
    for N in (1, 2, 3):
        data = ladder_norms(N, P)
        for k in range(N + 1):
            lam = k3_eigenvalue(k, P)
            expected_plus = data.plus_norms[k if k % 2 == 0 else k + 1]
            expected_minus = data.minus_norms[k + 1 if k % 2 == 0 else k]
            assert raising_norm_sq(lam, N, P) == expected_plus
            assert lowering_norm_sq(lam, N, P) == expected_minus


def test_spectrum_factorization_against_cycled_eigenvalues():
    for params in (ZERO, P):
        for N in range(4):
            rep = rep_matrices(N, params)
            n = N + 1
            expected = {k1_eigenvalue(s, params) for s in range(n)}
            assert len(expected) == n
            for lam in expected:
                assert char_poly_at(rep, lam) == 0


def _shifted_generator(rep, lam):
    """Dense lam I - K1 built from the band data of rep."""
    n = rep.N + 1
    out = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        out[k][k] = lam - rep.diag[k]
        if k + 1 < n:
            out[k][k + 1] = -rep.upper[k]
            out[k + 1][k] = -rep.lower[k + 1]
    return out


def test_spectrum_factorization_names_first_regular_eigenvalue():
    # Raising one diagonal entry moves the spectrum; the certificate must
    # name the first expected eigenvalue at which lam I - K1 is invertible.
    for params in [ZERO, P] + mu_triples(2, seed=79):
        for N in range(1, 7):
            rep = rep_matrices(N, params)
            n = N + 1
            expected = [k1_eigenvalue(s, params) for s in range(n)]
            assert birep._spectrum_factorization(rep) is None
            for j in range(n):
                diag = list(rep.diag)
                diag[j] += 1
                bumped = dataclasses.replace(rep, diag=tuple(diag))
                regular = [
                    lam for lam in expected
                    if linalg.rank(_shifted_generator(bumped, lam)) == n
                ]
                assert regular, (N, params, j)
                assert birep._spectrum_factorization(bumped) == regular[0]
        # At N = 1, raising V_1 and refitting V_0 keeps the first expected
        # eigenvalue a root, so only the last one is regular.
        rep = rep_matrices(1, params)
        first, last = (k1_eigenvalue(s, params) for s in range(2))
        v1 = rep.diag[1] + 1
        fitted = dataclasses.replace(
            rep, diag=(first - rep.u_squared[0] / (first - v1), v1)
        )
        regular = [
            lam for lam in (first, last)
            if linalg.rank(_shifted_generator(fitted, lam)) == 2
        ]
        assert regular == [last], params
        assert birep._spectrum_factorization(fitted) == last


def test_alternative_lowest_eigenvalues_are_inadmissible():
    # The admissibility windows allow three other starting eigenvalues; for
    # these sampled parameters each fails to generate a positive-norm string
    # of the right length (no general proof intended).
    N = 2
    negated = -(P.mu1 + P.mu2 + HALF)
    second_step = -(1 - P.mu1 - P.mu2 - HALF)
    assert raising_norm_sq(second_step, N, P) == Fraction(-1072, 75)
    tilde = HALF - P.mu1 - P.mu2
    assert raising_norm_sq(tilde, N, P) == 0
    assert lowering_norm_sq(tilde, N, P) == 0  # dead string: dimension 1 < N + 1
    assert raising_norm_sq(-tilde, N, P) < 0
    # The admitted choice, by contrast, starts a healthy string.
    assert lowering_norm_sq(k3_eigenvalue(0, P), N, P) > 0
    assert negated == -k3_eigenvalue(0, P)


def test_match_function_realization():
    report = match_function_realization(1, ZERO)
    assert report.passed
    assert rep_matrices(1, ZERO).diag == (-1, 0)
    for params in mu_triples(2, seed=73):
        for N in range(3):
            report = match_function_realization(N, params)
            assert report.passed, (N, params, report.counterexample)


def test_admissibility_windows():
    for params in mu_triples(4, seed=77) + [ZERO, P]:
        lam0 = k3_eigenvalue(0, params)
        m1, m2, m3 = params.mu1, params.mu2, params.mu3
        for N in range(7):
            hi_raise = N + m1 + m2 + (2 * m3 + 1 if N % 2 == 0 else 1)
            hi_lower = N + m1 + m2 + (1 if N % 2 == 0 else 2 * m3 + 1)
            assert m1 + m2 <= abs(lam0 - HALF) <= hi_raise
            assert abs(m1 - m2) <= abs(lam0 + HALF) <= hi_lower


def test_rep_rejects_negative_degree():
    with pytest.raises(ValueError):
        rep_matrices(-1, P)
    with pytest.raises(ValueError):
        ladder_norms(-2, P)


def test_verify_rep_runs_spectrum_factorization_beyond_degree_four(monkeypatch):
    assert verify_rep(6, P).passed
    monkeypatch.setattr(birep, "_spectrum_factorization", lambda rep: HALF)
    report = verify_rep(6, P)
    assert not report.passed
    assert report.counterexample == {"check": "spectrum factorization", "eigenvalue": "1/2"}
