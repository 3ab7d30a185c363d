"""Exact scalar arithmetic: rationals, Gaussian rationals, rising factorials.

Everything computed in this package reduces to a polynomial identity over
Q(i) once the three deformation parameters mu1, mu2, mu3 are fixed to
rational values.  Keeping every scalar an exact rational therefore turns
each operator identity into a strict equality check, with no tolerances.

`GRational` is the scalar of the public values: polynomial coefficients,
eigenvalues, matrix entries and scalar products.  The operator and
polynomial kernels compute on reduced Gaussian-integer columns instead (see
`poly`), so `GRational` arithmetic is off their hot paths and keeps one
plain formula per operation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

HALF = Fraction(1, 2)


class DigitLimitError(ValueError):
    """A rational with more digits than the interpreter converts to text
    (`sys.get_int_max_str_digits()`)."""


def rational_str(value) -> str:
    """Serialize a rational as "p/q" with q > 0 and gcd(|p|, q) = 1."""
    value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:  # the only ValueError int-to-str raises
        raise DigitLimitError(str(exc)) from None


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

    Values are immutable by convention.  Each operation is one formula on
    the (re, im) pairs and returns a new value through the constructor,
    which keeps both parts as Fractions.  A real value hashes like its real
    part, so it finds the same dict and set entries as the plain rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, ai, b, bi = self.re, self.im, other.re, other.im
        return GRational(a * b - ai * bi, a * bi + ai * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, ai, b, bi = self.re, self.im, other.re, other.im
        norm = b * b + bi * bi
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GRational((a * b + ai * bi) / norm, (ai * b - a * bi) / norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Matches hash of the plain rational when the value is real.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GRational":
        return GRational(self.re, -self.im)

    def __repr__(self):
        return f"GRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}i)"

    def to_json_dict(self) -> dict:
        return {"re": rational_str(self.re), "im": rational_str(self.im)}


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
