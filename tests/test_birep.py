import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import EDGE_MUS, mu_triples
from reference import lowering_norm_sq, raising_norm_sq

from diracdunkl.birep import (
    casimir_value,
    char_poly_at,
    effective_mu,
    generator_ops,
    k1_eigenvalue,
    k3_eigenvalue,
    ladder_norms,
    ladder_ops,
    match_function_realization,
    RepMatrices,
    rep_matrices,
    structure_constants,
    verify_band_data,
    verify_rep,
)
from diracdunkl import birep, linalg
from diracdunkl.exact import HALF, Params
from diracdunkl.operators import (
    anticommutator,
    commutator,
    coordinate_op,
    dunkl_op,
    image_columns,
)
from diracdunkl.poly import SpinorPoly

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


def _dense(columns: list, n: int) -> list[list[Fraction]]:
    """Dense matrix of real image columns on the states (k,), k < n."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, (den, entries) in enumerate(columns):
        for (i,), (re, im) in entries.items():
            assert im == 0
            out[i][j] = Fraction(re, den)
    return out


def test_rep_matrices_scalar_case():
    rep = rep_matrices(0, P)
    k1, k2, k3 = (_dense(c, 1) for c in image_columns(list(generator_ops(rep)), [(0,)]))
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


def _shifted_omega3(N: int, params: Params, shift: int) -> RepMatrices:
    """The band data of degree N with w3 shifted, as the omega3+1 mutant."""
    rep = rep_matrices(N, params)
    w1, w2, w3 = rep.omega
    return dataclasses.replace(rep, omega=(w1, w2, w3 + shift))


def test_verify_rep_detects_shifted_constant():
    report = verify_band_data(_shifted_omega3(3, P, 1))
    assert not report.passed
    assert report.counterexample["check"] == "{K1,K2} = K3 + w3"


def test_ladder_matrix_anticommutators():
    rep = rep_matrices(3, P)
    generators = generator_ops(rep)
    plus, minus, _, _ = ladder_ops(generators, rep.omega)
    k3 = generators[2]
    anti_plus, plus_cols, anti_minus, minus_cols = image_columns(
        [anticommutator(k3, plus), plus, anticommutator(k3, minus), -minus],
        [(k,) for k in range(4)],
    )
    assert _dense(anti_plus, 4) == _dense(plus_cols, 4)
    assert _dense(anti_minus, 4) == _dense(minus_cols, 4)


def test_generator_and_ladder_ops_match_dense_reference():
    for params in EDGE_MUS:
        for N in range(9):
            rep = rep_matrices(N, params)
            generators = generator_ops(rep)
            plus, minus, plus_dag, minus_dag = ladder_ops(generators, rep.omega)
            dense = reference.generator_matrices(rep)
            d_plus, d_minus, d_plus_dag, d_minus_dag = reference.ladder_matrices(
                dense, rep.omega
            )
            expected = [
                *dense, d_plus, d_minus,
                reference.mat_mul(d_plus_dag, d_plus),
                reference.mat_mul(d_minus_dag, d_minus),
            ]
            got = image_columns(
                [*generators, plus, minus, plus_dag * plus, minus_dag * minus],
                [(k,) for k in range(N + 1)],
            )
            for index, (columns, matrix) in enumerate(zip(got, expected)):
                assert _dense(columns, N + 1) == matrix, (params, N, index)


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
    """The keyed columns of lam I - K1 built from the band data of rep."""
    n = rep.N + 1
    out = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        out[k][k] = lam - rep.diag[k]
        if k + 1 < n:
            out[k][k + 1] = -rep.upper[k]
            out[k + 1][k] = -rep.lower[k + 1]
    return reference.keyed_columns(out)


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


# Counterexamples of verify_rep at mu = (1/2, 1/3, 2/5) after one entry of
# the band data is raised by 1/3, keyed by (N, field, index).  Relation
# failures name the row-major first differing entry of the relation.
def _relation(entry, lhs, rhs):
    return {"check": "{K1,K2} = K3 + w3", "entry": entry, "lhs": lhs, "rhs": rhs}


_A_N = {"check": "truncation A_N = 0", "value": "1/3"}
_C_0 = {"check": "truncation C_0 = 0", "value": "1/3"}
BUMPED_BAND_COUNTEREXAMPLES = {
    (1, "upper", 0): _relation([0, 0], "-433/275", "-23/25"),
    (1, "upper", 1): _A_N,
    (1, "lower", 0): _C_0,
    (1, "lower", 1): _relation([0, 0], "-6377/2475", "-23/25"),
    (1, "diag", 0): _relation([0, 0], "-8927/2475", "-23/25"),
    (1, "diag", 1): _relation([0, 1], "-1394/297", "0/1"),
    (1, "eigenvalues", 0): _relation([0, 0], "228268/81675", "-44/75"),
    (1, "eigenvalues", 1): _relation([0, 0], "2137/3025", "-23/25"),
    (3, "upper", 0): _relation([0, 0], "-1073/275", "-63/25"),
    (3, "upper", 1): _relation([1, 1], "-3396/425", "-464/75"),
    (3, "upper", 2): _relation([2, 2], "-659/575", "-13/25"),
    (3, "upper", 3): _A_N,
    (3, "lower", 0): _C_0,
    (3, "lower", 1): _relation([0, 0], "-11837/2475", "-63/25"),
    (3, "lower", 2): _relation([1, 1], "-2996/425", "-464/75"),
    (3, "lower", 3): _relation([2, 2], "-18311/5175", "-13/25"),
    (3, "diag", 0): _relation([0, 0], "-6229/825", "-63/25"),
    (3, "diag", 1): _relation([0, 1], "-1904/297", "0/1"),
    (3, "diag", 2): _relation([1, 2], "-506/153", "0/1"),
    (3, "diag", 3): _relation([2, 3], "-45298/3105", "0/1"),
    (3, "eigenvalues", 0): _relation([0, 0], "685588/81675", "-164/75"),
    (3, "eigenvalues", 1): _relation([0, 0], "19691/9075", "-63/25"),
    (3, "eigenvalues", 2): _relation([0, 2], "-224/153", "0/1"),
    (3, "eigenvalues", 3): _relation([1, 3], "-34364/17595", "0/1"),
    (5, "upper", 0): _relation([0, 0], "-1713/275", "-103/25"),
    (5, "upper", 1): _relation([1, 1], "-4276/425", "-584/75"),
    (5, "upper", 2): _relation([2, 2], "-1979/575", "-53/25"),
    (5, "upper", 3): _relation([3, 3], "-28286/2175", "-734/75"),
    (5, "lower", 0): _C_0,
    (5, "lower", 1): _relation([0, 0], "-17297/2475", "-103/25"),
    (5, "lower", 2): _relation([1, 1], "-12128/1275", "-584/75"),
    (5, "lower", 3): _relation([2, 2], "-29891/5175", "-53/25"),
    (5, "diag", 0): _relation([0, 0], "-28447/2475", "-103/25"),
    (5, "diag", 1): _relation([0, 1], "-2414/297", "0/1"),
    (5, "diag", 2): _relation([1, 2], "-1012/153", "0/1"),
    (5, "diag", 3): _relation([2, 3], "-54868/3105", "0/1"),
    (5, "eigenvalues", 0): _relation([0, 0], "1430908/81675", "-284/75"),
    (5, "eigenvalues", 1): _relation([0, 0], "44971/9075", "-103/25"),
    (5, "eigenvalues", 2): _relation([0, 2], "-568/153", "0/1"),
    (5, "eigenvalues", 3): _relation([1, 3], "-83248/17595", "0/1"),
}


def _bumped(original, field, index):
    def patched(*args):
        data = original(*args)
        values = list(getattr(data, field))
        values[index] += Fraction(1, 3)
        return dataclasses.replace(data, **{field: tuple(values)})

    return patched


def test_verify_rep_counterexamples_of_bumped_band_data(monkeypatch):
    for (N, field, index), expected in BUMPED_BAND_COUNTEREXAMPLES.items():
        monkeypatch.setattr(birep, "rep_matrices", _bumped(rep_matrices, field, index))
        report = verify_rep(N, P)
        assert report.counterexample == expected, (N, field, index)
        assert list(report.counterexample) == list(expected)
        assert (report.status, report.basis_size) == ("fail", N + 1)
    assert len(BUMPED_BAND_COUNTEREXAMPLES) == 40


# Counterexamples after one ladder norm is raised by 1/3; None where the
# raised norm is never compared (odd-indexed plus norms, even minus norms).
BUMPED_NORM_COUNTEREXAMPLES = {
    (2, "plus_norms", 0): {"check": "raising norm vanishes at k = 0"},
    (2, "plus_norms", 1): None,
    (2, "plus_norms", 2): {"check": "raising norm parity", "k": 1},
    (2, "plus_norms", 3): None,
    (2, "minus_norms", 0): None,
    (2, "minus_norms", 1): {"check": "lowering norm parity", "k": 0},
    (2, "minus_norms", 2): None,
    (2, "minus_norms", 3): {"check": "ladder truncation at k = N + 1", "value": "1/3"},
    (3, "plus_norms", 0): {"check": "raising norm vanishes at k = 0"},
    (3, "plus_norms", 1): None,
    (3, "plus_norms", 2): {"check": "raising norm parity", "k": 1},
    (3, "plus_norms", 3): None,
    (3, "plus_norms", 4): {"check": "ladder truncation at k = N + 1", "value": "1/3"},
    (3, "minus_norms", 0): None,
    (3, "minus_norms", 1): {"check": "lowering norm parity", "k": 0},
    (3, "minus_norms", 2): None,
    (3, "minus_norms", 3): {"check": "lowering norm parity", "k": 2},
    (3, "minus_norms", 4): None,
}


def test_verify_rep_counterexamples_of_bumped_ladder_norms(monkeypatch):
    for (N, field, index), expected in BUMPED_NORM_COUNTEREXAMPLES.items():
        monkeypatch.setattr(birep, "ladder_norms", _bumped(ladder_norms, field, index))
        assert verify_rep(N, P).counterexample == expected, (N, field, index)


def test_verify_rep_reports_golden_digest():
    # sha256 of the JSON reports for w3 shifted by 0, 1 and -3, every
    # EDGE_MUS triple and N = 0..12, recorded with the dense-matrix checks
    # and a shift argument of the expected w3 in `verify_rep`.
    reports = [
        verify_band_data(_shifted_omega3(N, params, shift)).to_json_dict()
        for shift in (0, 1, -3) for params in EDGE_MUS for N in range(13)
    ]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "49088383f0a76b9ea4e0c19d5b23c33fb5b9173703573dea60346967cb2e61c1"


def test_match_function_realization_reports_golden_digest():
    # sha256 of the JSON reports for every EDGE_MUS triple and N = 0..8,
    # all passing; recorded when the check still solved for the expansions
    # of K1 and K2, and unchanged by the intertwining identities.
    reports = [
        match_function_realization(N, params).to_json_dict()
        for params in EDGE_MUS for N in range(9)
    ]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "a2b83a469b00bdffd108f676e8a2431de4d7265e388f0a4b12b897d88965d8be"


_K1 = "K1 E = E rho(K1)^T"
_K2 = "K2 E = E rho(K2)^T"

# Counterexamples of the function realization at N = 3 after one entry of
# the band data is raised by 1/3, for every triple: the first element whose
# column of rho(K_i)^T moved.  A_N, C_0, the products u_k^2, w1 and w3 are
# not entries of rho(K1) and rho(K2), and only verify_rep reads them.
BUMPED_BAND_REALIZATION = {
    ("eigenvalues", 0): {"check": "K3 eigenvalue", "k": 0, "sign": 1},
    ("eigenvalues", 3): {"check": "K3 eigenvalue", "k": 3, "sign": 1},
    ("diag", 0): {"check": _K1, "k": 0, "sign": 1},
    ("diag", 3): {"check": _K1, "k": 3, "sign": 1},
    ("upper", 0): {"check": _K1, "k": 0, "sign": 1},
    ("upper", 2): {"check": _K1, "k": 2, "sign": 1},
    ("upper", 3): None,
    ("lower", 0): None,
    ("lower", 1): {"check": _K1, "k": 1, "sign": 1},
    ("lower", 3): {"check": _K1, "k": 3, "sign": 1},
    ("u_squared", 2): None,
    ("omega", 0): None,
    ("omega", 1): {"check": _K2, "k": 0, "sign": 1},
    ("omega", 2): None,
}


def test_match_function_realization_counterexamples_of_bumped_band_data(monkeypatch):
    for params in [P] + EDGE_MUS:
        for (field, index), expected in BUMPED_BAND_REALIZATION.items():
            monkeypatch.setattr(birep, "rep_matrices", _bumped(rep_matrices, field, index))
            report = match_function_realization(3, params)
            assert report.counterexample == expected, (params, field, index)


def _similar(N, params):
    """The band data under the diagonal similarity that scales every A_k by
    3 and every C_(k+1) by 1/3: the same u_k^2, spectra and relations."""
    rep = rep_matrices(N, params)
    return dataclasses.replace(rep, upper=tuple(3 * a for a in rep.upper),
                               lower=tuple(c / 3 for c in rep.lower))


def _plant_realization_defect(monkeypatch, defect):
    generator, basis = birep.bi_generator, birep.monogenic_basis

    def with_generator(i, build):
        monkeypatch.setattr(birep, "bi_generator", lambda params, j: (
            build(params) if j == i else generator(params, j)
        ))

    def with_element(key, poly):
        def replaced(N, params):
            built = basis(N, params)
            return dataclasses.replace(built, elements=tuple(
                dataclasses.replace(el, poly=poly(N, built.elements))
                if (el.k, el.sign) == key else el
                for el in built.elements
            ))
        monkeypatch.setattr(birep, "monogenic_basis", replaced)

    if defect == "K1 at mu3 + 1":
        with_generator(1, lambda p: generator(dataclasses.replace(p, mu3=p.mu3 + 1), 1))
    elif defect == "K1 + x1 T2":
        with_generator(1, lambda p: generator(p, 1) + coordinate_op(1) * dunkl_op(2, p))
    elif defect == "K2 + [K3, K1]":
        with_generator(2, lambda p: generator(p, 2) + commutator(generator(p, 3),
                                                                 generator(p, 1)))
    elif defect == "band data under a diagonal similarity":
        monkeypatch.setattr(birep, "rep_matrices", _similar)
    elif defect == "(0, -) repeats (0, +)":
        with_element((0, -1), lambda N, elements: elements[0].poly)
    elif defect == "(0, +) is zero":
        with_element((0, 1), lambda N, elements: SpinorPoly.zero())
    elif defect == "(1, +) is x1^N chi+, not monogenic":
        with_element((1, 1), lambda N, elements: SpinorPoly.monomial((N, 0, 0), 1))


# The first degree N at which each defect fails the function realization
# at mu = P, and its counterexample at every N from there to 3.  Below that
# degree the defect is invisible: T2 and [K3, K1] vanish on N = 0, a
# similarity has no off-diagonal entries to scale there, and N = 0 has no
# element (1, +).
REALIZATION_DEFECTS = {
    "K1 at mu3 + 1": (0, {"check": _K1, "k": 0, "sign": 1}),
    "K1 + x1 T2": (1, {"check": _K1, "k": 0, "sign": 1}),
    "K2 + [K3, K1]": (1, {"check": _K2, "k": 0, "sign": 1}),
    "band data under a diagonal similarity": (1, {"check": _K1, "k": 0, "sign": 1}),
    # Equal K3 eigenvalues, opposite sign sectors: a repeat is no basis.
    "(0, -) repeats (0, +)": (0, {"check": "Z3 eigenvalue", "k": 0, "sign": -1}),
    # A zero element satisfies every intertwining identity at N = 0.
    "(0, +) is zero": (0, {"check": "nonzero element", "k": 0, "sign": 1}),
    "(1, +) is x1^N chi+, not monogenic": (1, {"check": "K3 eigenvalue", "k": 1, "sign": 1}),
}


@pytest.mark.parametrize("defect", list(REALIZATION_DEFECTS))
def test_match_function_realization_counterexamples_of_defects(monkeypatch, defect):
    _plant_realization_defect(monkeypatch, defect)
    first, expected = REALIZATION_DEFECTS[defect]
    for N in range(4):
        report = match_function_realization(N, P)
        assert report.counterexample == (expected if N >= first else None), N
        assert report.basis_size == 2 * (N + 1)


def test_verify_rep_passes_band_data_under_a_diagonal_similarity(monkeypatch):
    # The relations are similarity invariant, so only the realization's
    # entry by entry comparison tells the similar band data apart.
    monkeypatch.setattr(birep, "rep_matrices", _similar)
    assert all(verify_rep(N, P).passed for N in range(5))


_EDGE_HEIGHTS = sorted({mu for params in EDGE_MUS for mu in (params.mu1, params.mu2, params.mu3)})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.tuples(*[st.sampled_from(_EDGE_HEIGHTS)] * 3))
def test_function_realization_holds_for_edge_heights(mu):
    # Zeros, mixed zeros and the large and odd heights of EDGE_MUS.
    params = Params(*mu)
    for N in range(4):
        report = match_function_realization(N, params)
        assert report.passed, (N, params, report.counterexample)
