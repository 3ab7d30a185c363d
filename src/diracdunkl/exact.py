"""Exact scalar arithmetic: rationals, Gaussian rationals, rising factorials.

Everything computed in this package reduces to a polynomial identity over
Q(i) once the three deformation parameters mu1, mu2, mu3 are fixed to
rational values.  Keeping every scalar an exact rational therefore turns
each operator identity into a strict equality check, with no tolerances.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

# Rational scalar: arbitrary-precision numerator, positive denominator,
# always in lowest terms (fractions.Fraction maintains both invariants).
Rational = Fraction

HALF = Fraction(1, 2)

_ZERO = Fraction(0)


def rational_str(value) -> str:
    """Serialize a rational as "p/q" with q > 0 and gcd(|p|, q) = 1."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# Size limits of a rational literal: characters after stripping, and the
# absolute value of a decimal exponent ("1e3").  Within them a literal
# parses in microseconds; "1e1000000" would build a 3.3-Mbit numerator.
MAX_LITERAL_CHARS = 100
MAX_LITERAL_EXPONENT = 100

_EXPONENT = re.compile(r"[eE]([+-]?\d+)")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", a bare, possibly signed, integer or a decimal such as
    "1.5" or "1e3".  Raises ValueError for malformed text and for literals
    longer than MAX_LITERAL_CHARS or with a decimal exponent above
    MAX_LITERAL_EXPONENT in absolute value."""
    text = text.strip()
    if len(text) > MAX_LITERAL_CHARS:
        raise ValueError(
            f"rational literal too large: {len(text)} characters "
            f"(at most {MAX_LITERAL_CHARS})"
        )
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_LITERAL_EXPONENT:
        raise ValueError(
            f"rational literal too large: exponent {exponent.group(1)} "
            f"(at most {MAX_LITERAL_EXPONENT} in absolute value)"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


class GRational:
    """Gaussian rational re + im*i with exact rational parts.

    Values are immutable by convention; every operation returns a new value.
    Every real value holds the one shared zero `_ZERO` as its imaginary
    part, so the arithmetic tests for realness by identity and takes a
    real-only path that skips the products and sums of imaginary parts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        self.im = im if im else _ZERO

    @staticmethod
    def _coerce(value):
        if isinstance(value, GRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GRational(value)
        return None

    def __add__(self, other):
        if other.__class__ is not GRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.im, other.im
        if a is _ZERO:
            im = b
        elif b is _ZERO:
            im = a
        else:
            im = a + b
            if not im:
                im = _ZERO
        return _make(self.re + other.re, im)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.im, other.im
        if b is _ZERO:
            im = a
        elif a is _ZERO:
            im = -b
        else:
            im = a - b
            if not im:
                im = _ZERO
        return _make(self.re - other.re, im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        im = self.im
        return _make(-self.re, im if im is _ZERO else -im)

    def __mul__(self, other):
        if other.__class__ is not GRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, ai, b, bi = self.re, self.im, other.re, other.im
        if ai is _ZERO:
            if bi is _ZERO:
                return _make(a * b, _ZERO)
            return _make(a * b, a * bi if a else _ZERO)
        if bi is _ZERO:
            return _make(a * b, ai * b if b else _ZERO)
        im = a * bi + ai * b
        return _make(a * b - ai * bi, im if im else _ZERO)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, ai, b, bi = self.re, self.im, other.re, other.im
        if bi is _ZERO:
            if not b:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _make(a / b, ai if ai is _ZERO else ai / b)
        norm = b * b + bi * bi
        im = (ai * b - a * bi) / norm
        return _make((a * b + ai * bi) / norm, im if im else _ZERO)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if other.__class__ is not GRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.im, other.im
        return (a is b or a == b) and self.re == other.re

    def __hash__(self):
        # Matches hash of the plain rational when the value is real.
        if self.im is _ZERO:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.im is not _ZERO or bool(self.re)

    def conjugate(self) -> "GRational":
        im = self.im
        return _make(self.re, im if im is _ZERO else -im)

    def __repr__(self):
        return f"GRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"

    def to_json_dict(self) -> dict:
        return {"re": rational_str(self.re), "im": rational_str(self.im)}


_new = object.__new__


def _make(re: Fraction, im: Fraction) -> GRational:
    """Unchecked constructor: both parts are Fractions, and im is _ZERO
    whenever it is zero."""
    out = _new(GRational)
    out.re = re
    out.im = im
    return out


I = GRational(0, 1)
MINUS_I = GRational(0, -1)


def as_grational(value) -> GRational:
    out = GRational._coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return out


@dataclass(frozen=True)
class Params:
    """The three non-negative rational deformation parameters.

    gamma3 = mu1 + mu2 + mu3 + 3/2 is the conformal constant of the
    three-dimensional setting.
    `mu_sum`, `gamma3` and the hash are computed once, at construction,
    because `Params` keys the caches of the hot paths; equality compares
    the three parameters only.
    """

    mu1: Fraction
    mu2: Fraction
    mu3: Fraction
    mu_sum: Fraction = field(init=False, repr=False, compare=False)
    gamma3: Fraction = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mu1", "mu2", "mu3"):
            value = Fraction(getattr(self, name))
            if value < 0:
                raise ValueError("mu must be non-negative")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "mu_sum", self.mu1 + self.mu2 + self.mu3)
        object.__setattr__(self, "gamma3", self.mu_sum + Fraction(3, 2))
        object.__setattr__(self, "_hash", hash((self.mu1, self.mu2, self.mu3)))

    def __hash__(self) -> int:
        return self._hash

    def mu(self, axis: int) -> Fraction:
        return (self.mu1, self.mu2, self.mu3)[axis - 1]

    def mu_strings(self) -> list[str]:
        return [rational_str(m) for m in (self.mu1, self.mu2, self.mu3)]

    @classmethod
    def parse(cls, text: str) -> "Params":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError("mu must be three comma-separated rationals")
        return cls(*(parse_rational(p) for p in parts))


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1); equals 1 when n = 0."""
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for j in range(n):
        out *= a + j
    return out


def factorial(n: int) -> Fraction:
    return Fraction(math.factorial(n))
