import dataclasses
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import reference
from conftest import EDGE_MUS, mu_triples, random_spinor
from reference import UnivariatePoly, jacobi, scalar_column

from diracdunkl import ck, closedform, suites
from diracdunkl.birep import k1_eigenvalue
from diracdunkl.ck import ck_extend_x2, ck_extend_x3, monogenic_basis
from diracdunkl.closedform import (
    closed_basis_pair,
    homogenized_jacobi,
    inner_product,
    lift,
    moment,
    overlap_matrix,
    squared_norm_factor,
    wavefunctions,
)
from diracdunkl.exact import GRational, HALF, Params, factorial, pochhammer
from diracdunkl.operators import (
    bi_generator,
    coordinate_op,
    involution,
    multiply_op,
    pauli_op,
    scalar_op,
    spherical_dirac,
    x_underline,
)
from diracdunkl.poly import ScalarPoly, SpinorPoly, pauli

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
CHI_PLUS = SpinorPoly.unit(1)
CHI_MINUS = SpinorPoly.unit(-1)


def up(exps, coef=1):
    return SpinorPoly.monomial(exps, 1, coef)


# --------------------------------------------------------------------------
# Jacobi polynomials.

def test_jacobi_examples():
    assert jacobi(0, Fraction(2, 7), Fraction(-1, 3)) == UnivariatePoly.constant(1)
    alpha, beta = Fraction(1, 2), Fraction(1, 3)
    expected = UnivariatePoly(
        [alpha + 1 - (alpha + beta + 2) * HALF, (alpha + beta + 2) * HALF]
    )
    assert jacobi(1, alpha, beta) == expected
    assert jacobi(1, 0, 0) == UnivariatePoly.x()


def test_jacobi_against_three_term_recurrence():
    rng = random.Random(3)
    for _ in range(4):
        alpha = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        beta = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        polys = [jacobi(n, alpha, beta) for n in range(7)]
        x = UnivariatePoly.x()
        for n in range(2, 7):
            a = 2 * n * (n + alpha + beta) * (2 * n + alpha + beta - 2)
            b_const = (2 * n + alpha + beta - 1) * (alpha**2 - beta**2)
            b_lin = (
                (2 * n + alpha + beta - 1)
                * (2 * n + alpha + beta)
                * (2 * n + alpha + beta - 2)
            )
            c = 2 * (n + alpha - 1) * (n + beta - 1) * (2 * n + alpha + beta)
            lhs = polys[n].scale(a)
            rhs = (x.scale(b_lin) + UnivariatePoly.constant(b_const)) * polys[n - 1]
            rhs = rhs - polys[n - 2].scale(c)
            assert lhs == rhs, (n, alpha, beta)


def _jacobi_parameters(m):
    """Random rational pairs, then negative-integer and half-integer values
    and pairs that make m + alpha + beta + 1 zero or a negative integer, so
    that a Pochhammer factor of some coefficient vanishes."""
    rng = random.Random(300 + m)
    pairs = [
        (Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
         Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        for _ in range(3)
    ]
    pairs += [
        (-1, 0), (-3, -2), (Fraction(-1, 2), Fraction(-7, 2)), (Fraction(5, 2), -4),
        (0, -m - 1), (Fraction(-3, 2), Fraction(1, 2) - m - 1), (-m, -1), (-m - 2, 2),
    ]
    return pairs


# (tangent, axis) as `lift` passes them: the line and the plane of each
# cyclic axis order (the psi and upsilon orders among them), so every axis
# is the lift axis once below one tangent axis and once below two.
LIFT_SHAPES = [
    shape
    for a1, a2, a3 in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    for shape in (((a1,), a2), ((a1, a2), a3))
]


def _big_x_y(tangent, axis):
    """X = the sum of the squares of the tangent coordinates, Y = x_axis^2."""
    big_x = ScalarPoly.zero()
    for a in tangent:
        big_x = big_x + ScalarPoly.variable(a) ** 2
    return big_x, ScalarPoly.variable(axis) ** 2


def test_homogenization_identity():
    # Three independent routes to the same polynomial in X and Y: the
    # two-binomial sum, coefficient substitution, and the terminating
    # hypergeometric form in powers of X.
    for m, (tangent, axis) in itertools.product(range(5), LIFT_SHAPES):
        x, y = _big_x_y(tangent, axis)
        for alpha, beta in _jacobi_parameters(m):
            alpha, beta = Fraction(alpha), Fraction(beta)
            route_a = homogenized_jacobi(m, alpha, beta, tangent, axis)

            coeffs = jacobi(m, alpha, beta).coeffs
            route_b = ScalarPoly.zero()
            for i, c in enumerate(coeffs):
                route_b = route_b + ((x - y) ** i * (x + y) ** (m - i)).scale(c)

            route_c = ScalarPoly.zero()
            for j in range(m + 1):
                c = (
                    pochhammer(alpha + j + 1, m - j)
                    * pochhammer(Fraction(-m), j)
                    * pochhammer(Fraction(-m) - beta, j)
                    * Fraction(-1) ** j
                    / (factorial(m) * factorial(j))
                )
                if c:
                    route_c = route_c + ((y**j) * (x ** (m - j))).scale(c)

            assert route_a == scalar_column(route_b) == scalar_column(route_c), (
                m, alpha, beta, tangent, axis)


@pytest.mark.parametrize("m", range(-1, 11))
def test_homogenized_jacobi_matches_the_series_reference(m):
    for alpha, beta in _jacobi_parameters(m):
        for tangent, axis in LIFT_SHAPES:
            assert homogenized_jacobi(m, alpha, beta, tangent, axis) == scalar_column(
                reference.homogenized_jacobi(m, alpha, beta, *_big_x_y(tangent, axis))
            ), (m, alpha, beta, tangent, axis)


# --------------------------------------------------------------------------
# Closed-form basis factors.

def test_planar_lift_small_cases():
    assert lift(0, 0, (1,), 2, P)(CHI_PLUS) == CHI_PLUS
    # x1 chi+ = x_t sigma1 chi+ on the line.
    result = lift(1, 0, (1,), 2, P)(pauli(CHI_PLUS, 1))
    ratio = (P.mu1 + HALF) / (P.mu2 + HALF)
    expected = up((1, 0, 0)) + pauli(
        pauli(SpinorPoly.monomial((0, 1, 0), 1, -ratio), 1), 2
    )
    assert result == expected


@pytest.mark.parametrize("params", EDGE_MUS, ids=str)
def test_lift_matches_the_extension_tower(params):
    # Both steps of the tower: from the line to the plane, x1^j chi =
    # x_t^j sigma1^j chi, and from the plane to space, x_t^j M for the
    # planar monogenic M of degree k.
    xt = x_underline((1, 2))
    for sign in (1, -1):
        chi = SpinorPoly.unit(sign)
        planars = ck_extend_x2([SpinorPoly.monomial((j, 0, 0), sign) for j in range(8)], params)
        for j, tower in enumerate(planars):
            closed = lift(j, 0, (1,), 2, params)((pauli_op(1) ** j)(chi))
            assert closed == tower, (j, sign)
        for k, planar in enumerate(planars):
            towers = ck_extend_x3([(xt ** j)(planar) for j in range(8 - k)], params)
            for j, tower in enumerate(towers):
                closed = lift(j, k, (1, 2), 3, params)(planar)
                assert closed == tower, (j, k, sign)


def test_lift_small_cases():
    rng = random.Random(57)
    f = random_spinor(rng, 2)
    assert lift(0, 3, (1, 2), 3, P)(f) == f  # no power of x_t: identity factor
    lifted = lift(1, 0, (1, 2), 3, P)(CHI_PLUS)
    ratio = (P.mu1 + P.mu2 + 1) / (P.mu3 + HALF)
    expected = (
        pauli(SpinorPoly.monomial((1, 0, 0), 1), 1)
        + pauli(SpinorPoly.monomial((0, 1, 0), 1), 2)
        + pauli(SpinorPoly.monomial((0, 0, 1), 1, -ratio), 3)
    )
    assert lifted == expected


def test_lift_rejects_negative_degrees():
    for j, k in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            lift(j, k, (1, 2), 3, P)
    with pytest.raises(ValueError):
        closed_basis_pair(2, 3, P)


def test_closed_form_equals_tower():
    # Beyond the N <= 5 that `verify` compares, as `basis --N` rests on the
    # closed form up to N = 60.
    cases = [(params, range(6)) for params in mu_triples(2, seed=59)]
    cases += [(params, (6, 8, 11)) for params in EDGE_MUS]
    for params, degrees in cases:
        for N in degrees:
            basis = monogenic_basis(N, params)
            assert [(el.k, el.sign) for el in basis.elements] == [
                (k, sign) for k in range(N + 1) for sign in (1, -1)]
            tower = reference.extension_tower(N, params)
            for el, poly in zip(basis.elements, tower, strict=True):
                assert el.poly == poly, (N, el.k, el.sign)


def test_lift_parameter_variant_is_inconsistent():
    # The even-branch leading Jacobi parameter admits two published variants
    # differing by one; only the one `lift` uses reproduces the extension
    # tower, the other is rejected by the same cross-check.  Both are built
    # here as lift(2, 0, (1, 2), 3): 1 / (mu3 + 1/2) times
    # P_1^(mu3 - 1/2, s + shift) - sigma3 xt x3 P_0, with s = mu1 + mu2.
    s, m = P.mu1 + P.mu2, P.mu3

    def even_lift(shift):
        leading = multiply_op(homogenized_jacobi(1, m - HALF, s + shift, (1, 2), 3))
        op = leading - pauli_op(3) * x_underline((1, 2)) * coordinate_op(3)
        return (1 / (m + HALF)) * op

    tower = reference.extension_tower(2, P)[0]  # k = 0, sign +, N - k even
    good, _ = closed_basis_pair(2, 0, P)
    assert even_lift(0)(CHI_PLUS) == good == tower
    assert even_lift(1)(CHI_PLUS) != tower


def test_closedform_suite_fails_a_wrong_monogenic_basis(monkeypatch):
    # The section checks the basis `ck.monogenic_basis` emits: here with
    # its degree-2 element (2, -) doubled, which the planar and the tower
    # checks both see.
    original = ck.monogenic_basis

    def wrong(N, params):
        basis = original(N, params)
        return dataclasses.replace(basis, elements=tuple(
            dataclasses.replace(el, poly=el.poly.scale(2)) if (N, el.k, el.sign) == (2, 2, -1)
            else el for el in basis.elements
        ))

    def failures(checks):
        return [(c["name"], c["counterexample"]) for c in checks if c["status"] != "pass"]

    monkeypatch.setattr(ck, "monogenic_basis", wrong)
    assert failures(suites.suite_closedform(P, 3)) == [
        ("planar monogenic closed form k=2", {"k": 2, "sign": "-"}),
        ("closed form equals extension tower N=2", {"N": 2, "k": 2, "sign": "-"}),
    ]
    monkeypatch.setattr(ck, "monogenic_basis", original)
    # A wrong tower element: x3^2 chi+ added to the extension of every
    # degree-2 input.
    extend = ck.ck_extend_x3
    monkeypatch.setattr(ck, "ck_extend_x3", lambda polys, params: [
        q + SpinorPoly.monomial((0, 0, 2), 1) if p.degree() == 2 else q
        for p, q in zip(polys, extend(polys, params))
    ])
    assert failures(suites.suite_closedform(P, 3)) == [
        ("closed form equals extension tower N=2", {"N": 2, "k": 0, "sign": "+"}),
    ]


# --------------------------------------------------------------------------
# Moments and the scalar product.

def reference_moment(params, a, b, c):
    """The moment as four rising factorials, computed from scratch."""
    return (
        pochhammer(params.mu1 + HALF, a)
        * pochhammer(params.mu2 + HALF, b)
        * pochhammer(params.mu3 + HALF, c)
        / pochhammer(params.gamma3, a + b + c)
    )


def reference_inner_product(f, g, params):
    """The scalar product as a double loop over the term pairs of f and g."""
    total = GRational(0)
    for comp_f, comp_g in ((f.up, g.up), (f.down, g.down)):
        for e1, c1 in comp_f.terms.items():
            for e2, c2 in comp_g.terms.items():
                s = [x + y for x, y in zip(e1, e2)]
                if not any(x % 2 for x in s):
                    weight = reference_moment(params, *(x // 2 for x in s))
                    total = total + c1.conjugate() * c2 * weight
    return total


def _half_exponents(max_total):
    return [
        (a, b, total - a - b)
        for total in range(max_total + 1)
        for a in range(total + 1)
        for b in range(total - a + 1)
    ]


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_moment_recurrence_matches_rising_factorials(order):
    points = _half_exponents(12)
    if order == "descending":
        points.reverse()
    elif order == "shuffled":
        random.Random(67).shuffle(points)
    for params in EDGE_MUS:
        moment.cache_clear()
        for point in points:
            assert moment(params, *point) == reference_moment(params, *point), (
                params, point
            )
    moment.cache_clear()


def test_moment_cold_deep_call():
    # A recurrence written as plain recursion through the cache nests one
    # call per step and overflows the interpreter stack here.
    moment.cache_clear()
    assert moment(P, 3000, 0, 0) == reference_moment(P, 3000, 0, 0)
    moment.cache_clear()


def test_moment_cache_is_bounded_above_the_largest_command():
    # `moments --N 100` touches every half exponent of total at most 100.
    assert 176_851 <= moment.cache_info().maxsize < float("inf")


def test_moments_past_the_cache_bound_match_rising_factorials(monkeypatch):
    # The same recurrence under a bound of 64 entries evicts what it filled
    # on the way; cold, warm, deep and repeated calls keep their values.
    bounded = lru_cache(maxsize=64)(moment.__wrapped__)
    monkeypatch.setattr(closedform, "moment", bounded)
    points = _half_exponents(8) + [(300, 2, 1), (0, 0, 250), (3, 0, 0), (300, 2, 1)]
    for params in EDGE_MUS[:4]:
        for point in points:
            assert bounded(params, *point) == reference_moment(params, *point), (
                params, point
            )
    assert bounded.cache_info().currsize == 64


def test_moment_cold_call_count_does_not_rest_on_the_cache(monkeypatch):
    # Under a 16-entry bound, a cold call at total n = 123 evaluates the
    # raw recurrence at most 4 (n + 3) times.
    calls = []

    def counted(*args):
        calls.append(args)
        return moment.__wrapped__(*args)

    bounded = lru_cache(maxsize=16)(counted)
    monkeypatch.setattr(closedform, "moment", bounded)
    assert bounded(P, 120, 2, 1) == reference_moment(P, 120, 2, 1)
    assert len(calls) <= 4 * (123 + 3)


def test_moment_rejects_negative_exponents():
    with pytest.raises(ValueError):
        moment(P, 0, -1, 2)


def test_inner_product_matches_pairwise_loop():
    rng = random.Random(69)
    for params in EDGE_MUS:
        for _ in range(3):
            f = random_spinor(rng, rng.randint(0, 4))
            g = random_spinor(rng, rng.randint(0, 4))
            value = inner_product(f, g, params)
            assert value == reference_inner_product(f, g, params)
            # Hermitian symmetry and conjugate-linearity in the first slot.
            assert inner_product(g, f, params) == value.conjugate()
            c = GRational(Fraction(2, 3), Fraction(-5, 7))
            assert inner_product(f.scale(c), g, params) == c.conjugate() * value
            assert inner_product(f, g.scale(c), params) == c * value
            h = random_spinor(rng, 3)
            assert inner_product(f + h, g, params) == (
                value + inner_product(h, g, params)
            )
    assert inner_product(SpinorPoly.zero(), CHI_PLUS, P) == GRational(0)


def test_overlap_matrix_matches_pairwise_loop():
    for params in (P, Params(0, 0, 0), Params(1000, 1, 1)):
        for N in range(5):
            data = overlap_matrix(N, params)
            ups = wavefunctions(N, params, "upsilon")
            psis = wavefunctions(N, params, "psi")
            for i, u in enumerate(ups):
                assert data.gram_upsilon[i] == reference_inner_product(
                    u.poly, u.poly, params
                )
                for j, p in enumerate(psis):
                    assert data.overlaps[i][j] == reference_inner_product(
                        u.poly, p.poly, params
                    ), (N, i, j)
            for j, p in enumerate(psis):
                assert data.gram_psi[j] == reference_inner_product(
                    p.poly, p.poly, params
                )


def test_moment_examples():
    assert moment(P, 0, 0, 0) == 1
    assert moment(Params(0, 0, 0), 1, 0, 0) == Fraction(1, 3)
    half = Fraction(1, 2)
    assert moment(Params(half, half, half), 1, 1, 0) == Fraction(1, 12)


def test_odd_moments_vanish():
    for e1, e2 in (((1, 0, 0), (0, 0, 0)), ((1, 2, 0), (0, 0, 1)), ((3, 0, 1), (0, 1, 0))):
        f = up(e1)
        g = up(e2)
        assert inner_product(f, g, P) == GRational(0)


def test_inner_product_basics():
    assert inner_product(CHI_PLUS, CHI_PLUS, P) == GRational(1)
    assert inner_product(CHI_PLUS, CHI_MINUS, P) == GRational(0)
    f = up((1, 0, 0), GRational(0, 1))
    g = up((1, 0, 0))
    # conjugate-linear in the first argument
    assert inner_product(f, g, P) == GRational(0, -1) * inner_product(g, g, P)
    assert inner_product(g, f, P) == inner_product(f, g, P).conjugate()


def test_first_degree_monogenics_are_orthogonal():
    for params in mu_triples(3, seed=61):
        basis = monogenic_basis(1, params)
        plus_elements = [el.poly for el in basis.elements if el.sign == 1]
        assert inner_product(plus_elements[0], plus_elements[1], params) == GRational(0)


def test_self_adjointness():
    rng = random.Random(63)
    gamma = spherical_dirac(P)
    gens = [bi_generator(P, i) for i in (1, 2, 3)]
    for _ in range(3):
        f = random_spinor(rng, 3)
        g = random_spinor(rng, 3)
        for op in [gamma] + gens:
            assert inner_product(op(f), g, P) == inner_product(f, op(g), P)


# --------------------------------------------------------------------------
# Normalized wavefunctions.

def test_normalized_wavefunction_base_case():
    w, _ = wavefunctions(0, P)
    assert w.poly == CHI_PLUS
    assert w.squared_norm_factor == 1
    assert inner_product(w.poly, w.poly, P) * w.squared_norm_factor == GRational(1)


def test_wavefunctions_share_one_diagonal_constant():
    for params in mu_triples(2, seed=65):
        values = set()
        for N in range(4):
            for w in wavefunctions(N, params, "psi"):
                assert w.squared_norm_factor > 0
                gram = inner_product(w.poly, w.poly, params)
                assert gram.im == 0 and gram.re > 0
                values.add(gram * w.squared_norm_factor)
        assert values == {GRational(1)}


def test_first_degree_diagonal_matches_classical_pair():
    params = Params(0, 0, 0)
    w10, _, w11, _ = wavefunctions(1, params)
    g10 = inner_product(w10.poly, w10.poly, params) * w10.squared_norm_factor
    g11 = inner_product(w11.poly, w11.poly, params) * w11.squared_norm_factor
    assert g10 == g11


def test_gram_matrix_is_diagonal_across_degrees():
    waves = []
    for N in range(4):
        waves.extend(wavefunctions(N, P, "psi"))
    for i, a in enumerate(waves):
        for b in waves[i + 1:]:
            assert inner_product(a.poly, b.poly, P) == GRational(0), (
                (a.N, a.k, a.sign), (b.N, b.k, b.sign)
            )


def test_squared_norm_factor_formula_spot_check():
    # N = 1, k = 1: the factor reduces to gamma3 (mu2+1/2) over
    # (mu1+mu2+1)(mu1+1/2).
    expected = (
        P.gamma3 * (P.mu2 + HALF) / ((P.mu1 + P.mu2 + 1) * (P.mu1 + HALF))
    )
    assert squared_norm_factor(1, 1, P) == expected


# --------------------------------------------------------------------------
# The cycled family.

def test_upsilon_base_case():
    waves = wavefunctions(0, P, "upsilon")
    assert [w.poly for w in waves] == [CHI_PLUS, CHI_MINUS]
    k1 = bi_generator(P, 1)
    for w in waves:
        assert k1(w.poly) == w.poly.scale(P.mu2 + P.mu3 + HALF)


def test_upsilon_eigenvalue_equations():
    scas = spherical_dirac(P) + scalar_op(1)
    k1 = bi_generator(P, 1)
    z3 = involution(3)
    for N in range(3):
        for w in wavefunctions(N, P, "upsilon"):
            assert scas(w.poly) == w.poly.scale(N + P.mu_sum + 1)
            assert k1(w.poly) == w.poly.scale(k1_eigenvalue(w.k, P))
            assert z3(w.poly) == w.poly.scale(Fraction(w.sign * (-1) ** (N - w.k)))
            gram = inner_product(w.poly, w.poly, P)
            assert gram * w.squared_norm_factor == GRational(1)


def test_upsilon_classical_first_degree_spectrum():
    params = Params(0, 0, 0)
    k1 = bi_generator(params, 1)
    seen = set()
    for w in wavefunctions(1, params, "upsilon"):
        image = k1(w.poly)
        eig = k1_eigenvalue(w.k, params)
        assert image == w.poly.scale(eig)
        seen.add(eig)
    assert seen == {HALF, Fraction(-3, 2)}


# --------------------------------------------------------------------------
# Overlaps.

def test_overlap_base_case():
    data = overlap_matrix(0, P)
    for i in range(2):
        for j in range(2):
            expected = GRational(1) if i == j else GRational(0)
            assert data.overlaps[i][j] == expected


def test_overlap_sector_decoupling():
    for N in (1, 2):
        data = overlap_matrix(N, P)
        for i, (s, q) in enumerate(data.upsilon_labels):
            for j, (k, r) in enumerate(data.psi_labels):
                if q * (-1) ** (N - s) != r * (-1) ** (N - k):
                    assert data.overlaps[i][j] == GRational(0), (N, s, q, k, r)


def test_overlap_sum_rule():
    for params in (Params(0, 0, 0), P):
        for N in (1, 2):
            data = overlap_matrix(N, params)
            for sector in (1, -1):
                rows = [
                    i for i, (s, q) in enumerate(data.upsilon_labels)
                    if q * (-1) ** (N - s) == sector
                ]
                cols = [
                    j for j, (k, r) in enumerate(data.psi_labels)
                    if r * (-1) ** (N - k) == sector
                ]
                for j1 in cols:
                    for j2 in cols:
                        total = GRational(0)
                        for i in rows:
                            total = total + (
                                data.overlaps[i][j1].conjugate()
                                * data.overlaps[i][j2]
                                / data.gram_upsilon[i]
                            )
                        expected = (
                            data.gram_psi[j1] if j1 == j2 else GRational(0)
                        )
                        assert total == expected, (N, sector, j1, j2)


def test_wavefunctions_reject_bad_family():
    with pytest.raises(ValueError):
        wavefunctions(1, P, "other")


@pytest.mark.parametrize("params, diagonal_value", [
    (P, "2147/2618"),
    (Params(0, 0, 0), "13/10"),
])
def test_orthogonality_suite_names_first_non_orthogonal_pair(
    monkeypatch, params, diagonal_value
):
    # Replace the degree-2 psi element (k=1, -) by a combination of the
    # elements (k=0, -) and (k=2, +); the failing checks and their
    # counterexamples were recorded with the pairwise scalar product.
    original = closedform.wavefunctions

    def mixed_wavefunctions(N, params, family="psi"):
        waves = original(N, params, family)
        if family != "psi" or N != 2:
            return waves
        mixed = dataclasses.replace(
            waves[3], poly=waves[1].poly + waves[4].poly.scale(2)
        )
        return waves[:3] + (mixed,) + waves[4:]

    monkeypatch.setattr(closedform, "wavefunctions", mixed_wavefunctions)
    failures = [
        (check["name"], check["counterexample"])
        for check in suites.suite_orthogonality(params, 3)
        if check["status"] != "pass"
    ]
    assert failures == [
        ("gram matrix diagonal through N=3",
         {"left": [2, 0, -1], "right": [2, 1, -1]}),
        ("common squared diagonal constant",
         {"N": 2, "k": 1, "value": diagonal_value, "common": "1"}),
        ("overlap sign sectors decouple N=2", {"N": 2, "s": 0, "k": 1}),
        ("overlap sum rule N=2", {"N": 2, "sector": 1, "cols": [3, 3]}),
    ]


def test_orthogonality_suite_fails_a_zero_cycled_wavefunction(monkeypatch):
    # Zero passes the eigenvalue equations (0 = lambda 0), so the sum rule,
    # which divides by the cycled Gram diagonal, must fail it.
    original = closedform.closed_basis_pair

    def vanishing(N, k, params, axes=closedform.PSI_AXES):
        pair = original(N, k, params, axes)
        if axes == closedform.UPSILON_AXES and (N, k) == (1, 1):
            return SpinorPoly.zero(), SpinorPoly.zero()
        return pair

    monkeypatch.setattr(closedform, "closed_basis_pair", vanishing)
    failures = [
        (check["name"], check["counterexample"])
        for check in suites.suite_orthogonality(P, 2)
        if check["status"] != "pass"
    ]
    assert failures == [("overlap sum rule N=1", {"N": 1, "sector": 1, "cols": [1, 1]})]
