import math
import random
from fractions import Fraction

import pytest
from conftest import mu_triples, random_spinor

from diracdunkl.exact import GRational, I, Params
from diracdunkl.poly import (
    ScalarPoly,
    SpinorPoly,
    coordinate_multiply,
    diff,
    divide_by_coordinate,
    dunkl,
    euler,
    monomial_exponents,
    pauli,
    reflect,
    spinor_basis_labels,
)

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


def up(exps, coef=1):
    return SpinorPoly.monomial(exps, 1, coef)


def test_reflect_examples():
    assert reflect(up((2, 1, 0)), 2) == up((2, 1, 0), -1)
    assert reflect(up((2, 0, 2)), 1) == up((2, 0, 2))
    assert reflect(up((1, 0, 0)) + up((0, 1, 0)), 1) == up((1, 0, 0), -1) + up((0, 1, 0))


def test_reflect_is_involution():
    rng = random.Random(7)
    for axis in (1, 2, 3):
        f = random_spinor(rng, 4)
        assert reflect(reflect(f, axis), axis) == f


def test_divide_by_coordinate():
    f = up((3, 0, 0)) + up((1, 2, 0))
    assert divide_by_coordinate(f, 1) == up((2, 0, 0)) + up((0, 2, 0))
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_coordinate(up((0, 1, 0)), 1)
    assert divide_by_coordinate(SpinorPoly.zero(), 3) == SpinorPoly.zero()


def test_dunkl_examples():
    one = SpinorPoly.unit(1)
    assert dunkl(up((1, 0, 0)), 1, P) == one.scale(1 + 2 * P.mu1)
    assert dunkl(up((2, 0, 0)), 1, P) == up((1, 0, 0), 2)
    assert dunkl(up((0, 3, 0)), 1, P) == SpinorPoly.zero()


def test_dunkl_matches_its_definition():
    # T_i f = d/dx_i f + mu_i (f - R_i f) / x_i; the difference keeps only
    # odd powers of x_i, so the division below is exact.
    rng = random.Random(11)
    for params in mu_triples(3, seed=5):
        f = random_spinor(rng, 5)
        for axis in (1, 2, 3):
            difference = f - reflect(f, axis)
            expected = diff(f, axis) + divide_by_coordinate(difference, axis).scale(
                params.mu(axis)
            )
            assert dunkl(f, axis, params) == expected


def test_dunkl_structural():
    rng = random.Random(13)
    f = random_spinor(rng, 6)
    for axis in (1, 2, 3):
        g = dunkl(f, axis, P)
        for comp in (g.up, g.down):
            assert all(min(e) >= 0 for e in comp.terms)
    # degree drops by exactly one on homogeneous polynomials
    h = up((2, 1, 1)) + SpinorPoly.monomial((0, 2, 2), -1, 3)
    assert dunkl(h, 2, P).degree() == 3


def test_dunkl_operators_commute_through_degree_6():
    for params in mu_triples(2, seed=9):
        for degree in range(7):
            for exps, sign in spinor_basis_labels(degree):
                f = SpinorPoly.monomial(exps, sign)
                for i, j in ((1, 2), (1, 3), (2, 3)):
                    assert dunkl(dunkl(f, i, params), j, params) == dunkl(
                        dunkl(f, j, params), i, params
                    )


def test_pauli_action():
    chi_plus = SpinorPoly.unit(1)
    chi_minus = SpinorPoly.unit(-1)
    assert pauli(chi_plus, 1) == chi_minus
    assert pauli(chi_plus, 2) == chi_minus.scale(I)
    assert pauli(chi_minus, 2) == chi_plus.scale(-I)
    assert pauli(chi_minus, 3) == -chi_minus
    assert pauli(pauli(chi_plus, 2), 1) == chi_plus.scale(I)


def test_clifford_relations_on_random_spinors():
    rng = random.Random(17)
    for _ in range(5):
        f = random_spinor(rng, 3)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                anti = pauli(pauli(f, j), i) + pauli(pauli(f, i), j)
                expected = f.scale(2) if i == j else SpinorPoly.zero()
                assert anti == expected


def test_euler_examples():
    assert euler(up((1, 1, 1))) == up((1, 1, 1), 3)
    assert euler(SpinorPoly.unit(-1)) == SpinorPoly.zero()
    assert euler(up((2, 0, 0)) + up((0, 1, 0))) == up((2, 0, 0), 2) + up((0, 1, 0))
    assert euler(up((1, 0, 1)), axes=(1, 2)) == up((1, 0, 1))


def test_canonical_equality():
    x1 = ScalarPoly.variable(1)
    x2 = ScalarPoly.variable(2)
    assert (x1 + x2) - x2 == x1
    assert not (x1 - x1)
    assert ScalarPoly({(0, 0, 0): 0}) == ScalarPoly.zero()


def test_scalar_poly_arithmetic():
    x1 = ScalarPoly.variable(1)
    x2 = ScalarPoly.variable(2)
    product = (x1 + x2) * (x1 - x2)
    assert product == x1 * x1 - x2 * x2
    assert (x1**3).degree() == 3
    assert x1.scale(GRational(0)) == ScalarPoly.zero()


def test_monomial_exponents_order_and_count():
    exps = monomial_exponents(2)
    assert len(exps) == 6
    assert exps[0] == (2, 0, 0)
    assert set(exps) == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)}
    assert monomial_exponents(3, axes=(1, 2)) == [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)]


def test_json_layout():
    f = SpinorPoly.monomial((0, 1, 0), 1, GRational(Fraction(1, 2), Fraction(-1, 3))) + up((1, 0, 0))
    payload = f.to_json_dict()
    assert payload["down"] == []
    assert [entry["exp"] for entry in payload["up"]] == [[0, 1, 0], [1, 0, 0]]
    assert payload["up"][0]["coef"] == {"re": "1/2", "im": "-1/3"}


def test_coordinate_multiply():
    assert coordinate_multiply(up((1, 0, 0)), 2) == up((1, 1, 0))


# ---------------------------------------------------------------------------
# SpinorPoly stores one reduced Gaussian-integer column; its arithmetic and
# queries must agree with the same operations on the pair of ScalarPoly
# components.

def _random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:  # small Gaussian rational
        return GRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
        )
    if kind == 1:  # large height
        return GRational(
            Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30)),
            Fraction(rng.randint(-10**40, 10**40), rng.choice((1, 10**30 + 7))),
        )
    return GRational(Fraction(6 * rng.randint(-5, 5), 35))  # common factors


def _random_component(rng, degrees):
    return ScalarPoly({
        exps: _random_coefficient(rng)
        for degree in degrees
        for exps in monomial_exponents(degree)
        if rng.random() < 0.35
    })


def _random_pair(rng):
    degrees = rng.choice(((0,), (2,), (3,), range(4)))
    return _random_component(rng, degrees), _random_component(rng, degrees)


def _cancelling(rng, part):
    """Negates a random half of part's terms and adds fresh ones."""
    kept = ScalarPoly({e: -c for e, c in part.terms.items() if rng.random() < 0.5})
    return kept + _random_component(rng, (1, 2))


def _assert_reduced(f):
    den, entries = f.column
    assert den > 0 and all(re or im for re, im in entries.values())
    assert math.gcd(den, *(part for value in entries.values() for part in value)) == 1
    assert den == 1 or entries


def _json_reference(up_part, down_part):
    return {
        name: [{"exp": list(e), "coef": c.to_json_dict()} for e, c in sorted(part.terms.items())]
        for name, part in (("up", up_part), ("down", down_part))
    }


def test_spinor_arithmetic_matches_the_scalar_pair_reference():
    rng = random.Random(71)
    for _ in range(80):
        fu, fd = _random_pair(rng)
        gu, gd = (_cancelling(rng, fu), _cancelling(rng, fd)) if rng.random() < 0.7 else (fu, fd)
        f, g = SpinorPoly(fu, fd), SpinorPoly(gu, gd)
        assert (f.up, f.down) == (fu, fd)
        results = [
            (f + g, fu + gu, fd + gd),
            (f - g, fu - gu, fd - gd),
            (-f, -fu, -fd),
            (f + SpinorPoly(-fu, -fd), ScalarPoly.zero(), ScalarPoly.zero()),
        ]
        for c in (0, 1, -1, I, _random_coefficient(rng), _random_coefficient(rng)):
            results.append((f.scale(c), fu.scale(c), fd.scale(c)))
        for got, up_part, down_part in results:
            _assert_reduced(got)
            assert (got.up, got.down) == (up_part, down_part)
            assert got == SpinorPoly(up_part, down_part)
            assert bool(got) == bool(up_part or down_part)
            assert got.degree() == max(up_part.degree(), down_part.degree())
            assert got.is_homogeneous() == (
                len({sum(e) for part in (up_part, down_part) for e in part.terms}) <= 1
            )
            for axis in (1, 2, 3):
                assert got.involves(axis) == any(
                    e[axis - 1] for part in (up_part, down_part) for e in part.terms
                )
            assert got.to_json_dict() == _json_reference(up_part, down_part)
        assert (f == g) == (fu == gu and fd == gd)
        assert (f == SpinorPoly(fd, fu)) == (fu == fd)
        assert f + g - g == f
        assert not (f - f)
