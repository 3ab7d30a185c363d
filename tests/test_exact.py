from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdunkl.exact import (
    MAX_LITERAL_CHARS,
    MAX_LITERAL_EXPONENT,
    GRational,
    I,
    Params,
    as_grational,
    parse_rational,
    pochhammer,
    rational_str,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
grationals = st.builds(GRational, rationals, rationals)
# Real and complex values in even measure, so every real/complex pairing of
# the arithmetic's real-only paths is reached.
mixed_grationals = st.one_of(st.builds(GRational, rationals), grationals)


def test_pochhammer_examples():
    assert pochhammer(Fraction(3, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(-2), 3) == 0


def test_pochhammer_rejects_negative_count():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 2), -1)


@settings(derandomize=True, max_examples=300)
@given(rationals, st.integers(0, 6), st.integers(0, 6))
def test_pochhammer_splitting(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


@settings(derandomize=True, max_examples=1000)
@given(grationals, grationals, grationals)
def test_grational_field_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


@settings(derandomize=True, max_examples=300)
@given(grationals, grationals)
def test_grational_division_and_conjugation(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if b:
        assert (a / b) * b == a


@settings(derandomize=True, max_examples=500)
@given(mixed_grationals, mixed_grationals)
def test_grational_matches_pair_reference(a, b):
    # Reference arithmetic on (re, im) pairs of Fractions.
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    cases = [
        (a + b, (ar + br, ai + bi)),
        (a - b, (ar - br, ai - bi)),
        (a * b, (ar * br - ai * bi, ar * bi + ai * br)),
        (-a, (-ar, -ai)),
    ]
    if b:
        norm = br * br + bi * bi
        cases.append((a / b, ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)))
    for value, (re, im) in cases:
        assert (value.re, value.im) == (re, im)
        assert type(value.re) is Fraction and type(value.im) is Fraction
        if not im:
            assert hash(value) == hash(value.re)
            assert value == value.re


def test_imaginary_unit():
    assert I * I == -1
    assert I.conjugate() == -I
    assert GRational(2, 3) == GRational(2) + 3 * I


def test_grational_json():
    value = GRational(Fraction(-1, 2), Fraction(3))
    assert value.to_json_dict() == {"re": "-1/2", "im": "3/1"}


def test_rational_string_round_trip():
    for text in ("3/4", "-7/2", "0/1", "5/1"):
        assert rational_str(parse_rational(text)) == text
    assert parse_rational("3") == 3
    assert parse_rational("-2") == -2
    with pytest.raises(ValueError):
        parse_rational("one half")


def test_parse_rational_size_limits():
    assert parse_rational("1e3") == 1000
    assert parse_rational(" 1.5E-2 ") == Fraction(3, 200)
    assert parse_rational(f"1e{MAX_LITERAL_EXPONENT}") == 10**MAX_LITERAL_EXPONENT
    assert parse_rational(f"1e-{MAX_LITERAL_EXPONENT}") == Fraction(1, 10**MAX_LITERAL_EXPONENT)
    assert parse_rational("7" * MAX_LITERAL_CHARS) == int("7" * MAX_LITERAL_CHARS)
    for text in (
        f"1e{MAX_LITERAL_EXPONENT + 1}",
        f"1e-{MAX_LITERAL_EXPONENT + 1}",
        "1e1000000",
        "1e100000000",
        "7" * (MAX_LITERAL_CHARS + 1),
        "1/" + "3" * MAX_LITERAL_CHARS,
    ):
        with pytest.raises(ValueError, match="too large"):
            parse_rational(text)
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational("1/0")
    assert Params.parse("1e3,1,1").mu1 == 1000


def test_params_invariants():
    p = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    assert p.gamma3 == Fraction(1, 2) + Fraction(1, 3) + Fraction(2, 5) + Fraction(3, 2)
    assert p.gamma2 == Fraction(1, 2) + Fraction(1, 3) + 1
    assert p.mu(2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        Params(Fraction(-1), 0, 0)
    assert Params.parse("1/2,1/3,2/5") == p
    with pytest.raises(ValueError):
        Params.parse("1/2,1/3")


def test_equal_params_hash_equally_and_share_moment_cache_entries():
    from diracdunkl.closedform import moment

    triples = [
        Params(1, 0, 2),
        Params(Fraction(1), Fraction(0), Fraction(2)),
        Params(Fraction(3, 3), 0, Fraction(4, 2)),
        Params.parse("1,0,2"),
        Params.parse(" 2/2, 0/5 ,2.0"),
    ]
    first = triples[0]
    for p in triples:
        assert p == first and hash(p) == hash(first)
        assert (p.mu_sum, p.gamma3) == (3, Fraction(9, 2))
        assert type(p.mu_sum) is Fraction
    assert len(set(triples)) == 1
    assert Params(1, 0, 3) != first and Params(2, 0, 1) != first
    assert repr(first) == (
        "Params(mu1=Fraction(1, 1), mu2=Fraction(0, 1), mu3=Fraction(2, 1))"
    )
    moment.cache_clear()
    value = moment(first, 2, 4, 0)
    size = moment.cache_info().currsize
    for p in triples[1:]:
        hits = moment.cache_info().hits
        assert moment(p, 2, 4, 0) == value
        assert moment.cache_info().hits == hits + 1
        assert moment.cache_info().currsize == size


def test_as_grational_rejects_junk():
    with pytest.raises(TypeError):
        as_grational("1/2")
