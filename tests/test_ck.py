import hashlib
import json
import random
from fractions import Fraction

import pytest
from conftest import EDGE_MUS, mu_triples, random_spinor

from diracdunkl import linalg
from diracdunkl.ck import (
    ck_extend_x2,
    ck_extend_x3,
    fischer_decompose,
    monogenic_basis,
)
from diracdunkl.closedform import closed_basis_element
from diracdunkl.exact import HALF, GRational, I, Params, pochhammer
from diracdunkl.operators import dirac, x_underline
from diracdunkl.poly import (
    SpinorPoly,
    coordinate_multiply,
    dunkl,
    euler,
    pauli,
    spinor_basis_labels,
)
from diracdunkl.suites import _random_homogeneous

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
CHI_PLUS = SpinorPoly.unit(1)
CHI_MINUS = SpinorPoly.unit(-1)


def up(exps, coef=1):
    return SpinorPoly.monomial(exps, 1, coef)


XT = x_underline((1, 2))


def tangent_dirac(f, params, axes=(1, 2)):
    out = SpinorPoly.zero()
    for a in axes:
        out = out + pauli(dunkl(f, a, params), a)
    return out


def ck_extend_reference(p, ext_axis, tangent_axes, params):
    """The extension series built from the `poly` primitives alone."""
    mu = params.mu(ext_axis)
    result = SpinorPoly.zero()
    current = p  # holds Dt^alpha p
    alpha = 0
    while current:
        a, odd = divmod(alpha, 2)
        coef = Fraction((-1) ** (a + odd), 4**a) / (
            pochhammer(mu + HALF, a)
            if not odd
            else 2 * (mu + HALF) * pochhammer(mu + Fraction(3, 2), a)
        )
        coef /= pochhammer(1, a)  # a!
        term = pauli(current, ext_axis) if odd else current
        for _ in range(alpha):
            term = coordinate_multiply(term, ext_axis)
        result = result + term.scale(coef)
        current = tangent_dirac(current, params, tangent_axes)
        alpha += 1
    return result


def _is_real(f):
    return all(not c.im for part in (f.up, f.down) for c in part.terms.values())


def test_extension_of_constants():
    assert ck_extend_x3(CHI_PLUS, P) == CHI_PLUS
    assert ck_extend_x2(CHI_MINUS, P) == CHI_MINUS


def test_extension_x3_linear_input():
    # x1 chi+ picks up exactly one correction term.
    result = ck_extend_x3(up((1, 0, 0)), P)
    ratio = (1 + 2 * P.mu1) / (1 + 2 * P.mu3)
    correction = pauli(pauli(SpinorPoly.monomial((0, 0, 1), 1, -ratio), 1), 3)
    assert result == up((1, 0, 0)) + correction
    assert dirac(P)(result) == SpinorPoly.zero()


def test_extension_x2_linear_input():
    result = ck_extend_x2(up((1, 0, 0)), P)
    ratio = (P.mu1 + Fraction(1, 2)) / (P.mu2 + Fraction(1, 2))
    correction = pauli(pauli(SpinorPoly.monomial((0, 1, 0), 1, -ratio), 1), 2)
    assert result == up((1, 0, 0)) + correction


def test_extension_x2_quadratic_input():
    result = ck_extend_x2(up((2, 0, 0)), P)
    r = (2 * P.mu1 + 1) / (2 * P.mu2 + 1)
    expected = (
        up((2, 0, 0))
        + up((0, 2, 0), -r)
        + up((1, 1, 0), 2 * I / (2 * P.mu2 + 1))
    )
    assert result == expected


def test_extension_matches_poly_reference():
    rng = random.Random(53)
    for params in EDGE_MUS:
        for _ in range(2):
            f = random_spinor(rng, 5, axes=(1, 2))
            assert not f.is_homogeneous() and not _is_real(f)
            assert ck_extend_x3(f, params) == ck_extend_reference(f, 3, (1, 2), params)
            g = random_spinor(rng, 6, axes=(1,))
            assert not g.is_homogeneous() and not _is_real(g)
            assert ck_extend_x2(g, params) == ck_extend_reference(g, 2, (1,), params)
        assert ck_extend_x3(SpinorPoly.zero(), params) == SpinorPoly.zero()


def test_extension_preconditions():
    with pytest.raises(ValueError):
        ck_extend_x3(up((0, 0, 1)), P)
    with pytest.raises(ValueError):
        ck_extend_x2(up((0, 1, 0)), P)


def test_restriction_inverts_extension():
    rng = random.Random(31)
    for _ in range(4):
        f = random_spinor(rng, 4, axes=(1, 2))
        g = ck_extend_x3(f, P)
        restricted = SpinorPoly(
            g.up.set_coordinate_zero(3), g.down.set_coordinate_zero(3)
        )
        assert restricted == f
        assert dirac(P)(g) == SpinorPoly.zero()


def test_classical_reduction_without_third_parameter():
    # With the third parameter zero, the extension is the exponential series
    # exp(-sigma3 x3 Dt) of the classical construction.
    params = Params(Fraction(1, 2), Fraction(1, 3), 0)

    def classical(p):
        total = SpinorPoly.zero()
        term = p  # holds (sigma3 x3 Dt)^alpha p
        alpha = 0
        factorial = 1
        while term:
            total = total + term.scale(Fraction((-1) ** alpha, factorial))
            term = pauli(coordinate_multiply(tangent_dirac(term, params), 3), 3)
            alpha += 1
            factorial *= alpha
        return total

    seeds = [
        ck_extend_x2(up((1, 0, 0)), params),  # m_1 in the plane
        ck_extend_x2(SpinorPoly.monomial((2, 0, 0), -1), params),
        up((1, 2, 0)),
    ]
    for seed in seeds:
        assert ck_extend_x3(seed, params) == classical(seed)


def test_power_identities_for_tangent_operators():
    # The four rising-factorial identities for powers of the tangent Dirac
    # operator acting on in-plane Clifford powers of planar monogenics.
    gamma2 = P.gamma2
    for k in range(3):
        mk = ck_extend_x2(up((k, 0, 0)), P)
        for beta in range(3):  # 2 beta <= 4
            for alpha in range(4):
                even_target = (XT ** (2 * beta))(mk)
                odd_target = (XT ** (2 * beta + 1))(mk)

                lhs = even_target
                for _ in range(2 * alpha):
                    lhs = tangent_dirac(lhs, P)
                coef = (
                    Fraction(4) ** alpha
                    * pochhammer(Fraction(-beta), alpha)
                    * pochhammer(1 - k - beta - gamma2, alpha)
                )
                rhs = (
                    (XT ** (2 * beta - 2 * alpha))(mk).scale(coef)
                    if coef
                    else SpinorPoly.zero()
                )
                assert lhs == rhs, ("even/even", k, beta, alpha)

                lhs = even_target
                for _ in range(2 * alpha + 1):
                    lhs = tangent_dirac(lhs, P)
                coef = (
                    beta
                    * 2 * Fraction(4) ** alpha
                    * pochhammer(Fraction(1 - beta), alpha)
                    * pochhammer(1 - k - beta - gamma2, alpha)
                )
                rhs = (
                    (XT ** (2 * beta - 2 * alpha - 1))(mk).scale(coef)
                    if coef
                    else SpinorPoly.zero()
                )
                assert lhs == rhs, ("odd/even", k, beta, alpha)

                lhs = odd_target
                for _ in range(2 * alpha):
                    lhs = tangent_dirac(lhs, P)
                coef = (
                    Fraction(4) ** alpha
                    * pochhammer(Fraction(-beta), alpha)
                    * pochhammer(-k - beta - gamma2, alpha)
                )
                rhs = (
                    (XT ** (2 * beta - 2 * alpha + 1))(mk).scale(coef)
                    if coef
                    else SpinorPoly.zero()
                )
                assert lhs == rhs, ("even/odd", k, beta, alpha)

                lhs = odd_target
                for _ in range(2 * alpha + 1):
                    lhs = tangent_dirac(lhs, P)
                coef = (
                    (k + beta + gamma2)
                    * 2 * Fraction(4) ** alpha
                    * pochhammer(Fraction(-beta), alpha)
                    * pochhammer(1 - k - beta - gamma2, alpha)
                )
                rhs = (
                    (XT ** (2 * beta - 2 * alpha))(mk).scale(coef)
                    if coef
                    else SpinorPoly.zero()
                )
                assert lhs == rhs, ("odd/odd", k, beta, alpha)


def test_planar_commutation_relations():
    # [Dt, xt^2] = 2 xt and {Dt, xt} = 2 (euler + gamma2) on the plane.
    for degree in range(7):
        for exps, sign in spinor_basis_labels(degree, axes=(1, 2)):
            f = SpinorPoly.monomial(exps, sign)
            xt2 = (XT ** 2)(f)
            lhs = tangent_dirac(xt2, P) - (XT ** 2)(tangent_dirac(f, P))
            assert lhs == XT(f).scale(2)
            anti = tangent_dirac(XT(f), P) + XT(tangent_dirac(f, P))
            assert anti == euler(f, axes=(1, 2)).scale(2) + f.scale(2 * P.gamma2)


def test_monogenic_basis_smallest_cases():
    basis = monogenic_basis(0, P)
    assert [el.poly for el in basis.elements] == [CHI_PLUS, CHI_MINUS]
    assert [(el.k, el.sign) for el in basis.elements] == [(0, 1), (0, -1)]


def test_monogenic_basis_cache_evicts_past_its_bound():
    # A default `verify` run reuses 30 bases (degrees 0..5 for five triples).
    maxsize = monogenic_basis.cache_info().maxsize
    assert 30 <= maxsize < float("inf")
    monogenic_basis.cache_clear()
    first = monogenic_basis(2, P)
    for n in range(maxsize):
        monogenic_basis(0, Params(n + 1, 0, 0))
    assert monogenic_basis.cache_info().currsize == maxsize
    misses = monogenic_basis.cache_info().misses
    again = monogenic_basis(2, P)
    assert monogenic_basis.cache_info().misses == misses + 1
    assert again is not first and again == first
    for el in again.elements:
        assert el.poly == closed_basis_element(2, el.k, el.sign, P)
    monogenic_basis.cache_clear()


def test_monogenic_basis_properties():
    d_op = dirac(P)
    for N in range(4):
        basis = monogenic_basis(N, P)
        assert len(basis.elements) == 2 * (N + 1)
        for el in basis.elements:
            assert el.poly.is_homogeneous() and el.poly.degree() == N
            assert d_op(el.poly) == SpinorPoly.zero()
        assert linalg.rank([el.poly.column for el in basis.elements]) == 2 * (N + 1)


def test_monogenic_span_is_entire_kernel():
    for N in range(6):
        labels = spinor_basis_labels(N)
        images = [dirac(P)(SpinorPoly.monomial(e, s)).column for e, s in labels]
        image_rank = linalg.rank(images)
        assert len(labels) - image_rank == 2 * (N + 1)


def test_fischer_examples():
    parts = fischer_decompose(CHI_PLUS, P)
    assert parts.components == (CHI_PLUS,)

    f = up((1, 0, 0))
    parts = fischer_decompose(f, P)
    coef = (1 + 2 * P.mu1) / (2 * P.gamma3)
    sigma1_chi_plus = pauli(CHI_PLUS, 1)
    expected_m0 = sigma1_chi_plus.scale(coef)
    assert parts.components[1] == expected_m0
    assert parts.components[0] == f - x_underline()(expected_m0)
    assert dirac(P)(parts.components[0]) == SpinorPoly.zero()
    assert parts.reconstruct() == f


def test_fischer_random_reconstruction():
    rng = random.Random(41)
    for params in mu_triples(2, seed=43):
        for N in range(4):
            f = SpinorPoly.zero()
            while not f:
                f = SpinorPoly.zero()
                for exps, sign in spinor_basis_labels(N):
                    coef = GRational(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    )
                    if coef:
                        f = f + SpinorPoly.monomial(exps, sign, coef)
            parts = fischer_decompose(f, params)
            assert parts.reconstruct() == f
            for k, part in enumerate(parts.components):
                assert dirac(params)(part) == SpinorPoly.zero()
                if part:
                    assert part.degree() == N - k


def test_fischer_dimension_audit():
    N = 4
    columns = []
    for k in range(N + 1):
        for el in monogenic_basis(N - k, P).elements:
            columns.append((x_underline() ** k)(el.poly).column)
    assert len(columns) == (N + 1) * (N + 2)
    assert linalg.rank(columns) == 2 * 15


def test_fischer_rejects_bad_input():
    with pytest.raises(ValueError):
        fischer_decompose(SpinorPoly.zero(), P)
    with pytest.raises(ValueError):
        fischer_decompose(CHI_PLUS + up((1, 0, 0)), P)


@pytest.mark.parametrize("N, digest", [
    (5, "9090025251ed35b9c86f4b22581c7a41f1ee5c0466763fdfb1087518dc3229cf"),
    (6, "95ae123f6c08b96d958a640950c7817a00f4d1bb9aacb754806fead1c0a369b7"),
    (7, "9b572ae85b5e07ee0776512501327b3ae6d6bbab547f41bd0c32f5be9253b6df"),
])
def test_fischer_components_golden_digest(N, digest):
    # SHA-256 of the component JSON of a seeded dense input, recorded with
    # the Fraction Gauss-Jordan elimination and per-element operator builds.
    f = _random_homogeneous(random.Random(1000 + N), N)
    parts = fischer_decompose(f, P)
    data = json.dumps([part.to_json_dict() for part in parts.components])
    assert hashlib.sha256(data.encode()).hexdigest() == digest
