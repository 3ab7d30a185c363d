"""Sparse spinor-valued polynomials in x1, x2, x3 over the Gaussian rationals.

A spinor polynomial is stored as its column `(den, {(sign, exps): (re, im)})`,
the sum of (re + i im) / den times x^exps chi_sign, where chi+ = (1, 0) has
sign 1 and chi- = (0, 1) sign -1; this ordering fixes the sign conventions
of the second and third Pauli actions.  Columns are reduced (den > 0, no zero
entries, den coprime to the entries, den = 1 for zero), so equal polynomials
have equal columns, and `combine` sums and scales them with integer products
and one gcd.  `operators` evaluates on columns, also over other hashable
keys, and `linalg` eliminates on them directly.  No code mutates a column
once built: an operator's result can share its dict with a memo entry of its
graph.

A `ScalarPoly` maps exponent triples to nonzero `GRational` coefficients.
The reference versions of the primitive operators below (reflection, partial
derivative, division by a coordinate, Dunkl derivative, Pauli action, Euler
operator, coordinate multiplication) act on the two `ScalarPoly` components;
the tests compare the integer kernels of `operators`, and the extension maps
built on them, against these definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .exact import GRational, I, MINUS_I, Params, as_grational

MultiIndex = tuple[int, int, int]


class ScalarPoly:
    """Polynomial in x1, x2, x3 with GRational coefficients, zero terms stripped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coef in terms.items():
                coef = as_grational(coef)
                if coef:
                    clean[tuple(exps)] = coef
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "ScalarPoly":
        # Internal fast path: coefficients already GRational, zeros possible.
        self = object.__new__(cls)
        self.terms = {e: c for e, c in terms.items() if c}
        return self

    @classmethod
    def zero(cls) -> "ScalarPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, value) -> "ScalarPoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, exps, coef=1) -> "ScalarPoly":
        exps = tuple(exps)
        if len(exps) != 3 or any(e < 0 or not isinstance(e, int) for e in exps):
            raise ValueError(f"invalid exponent triple: {exps!r}")
        return cls({exps: coef})

    @classmethod
    def variable(cls, axis: int) -> "ScalarPoly":
        exps = [0, 0, 0]
        exps[axis - 1] = 1
        return cls({tuple(exps): 1})

    def __add__(self, other: "ScalarPoly") -> "ScalarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return ScalarPoly._raw(out)

    def __sub__(self, other: "ScalarPoly") -> "ScalarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = -c if s is None else s - c
        return ScalarPoly._raw(out)

    def __neg__(self) -> "ScalarPoly":
        return ScalarPoly._raw({e: -c for e, c in self.terms.items()})

    def scale(self, value) -> "ScalarPoly":
        value = as_grational(value)
        if not value:
            return ScalarPoly.zero()
        return ScalarPoly._raw({e: c * value for e, c in self.terms.items()})

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prod = c1 * c2
                s = out.get(e)
                out[e] = prod if s is None else s + prod
        return ScalarPoly._raw(out)

    def __pow__(self, n: int) -> "ScalarPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ScalarPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"x{i+1}^{a}" for i, a in enumerate(e) if a) or "1"
            bits.append(f"({self.terms[e]})*{mono}")
        return " + ".join(bits)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def reflect(self, axis: int) -> "ScalarPoly":
        i = axis - 1
        return ScalarPoly._raw(
            {e: (c if e[i] % 2 == 0 else -c) for e, c in self.terms.items()}
        )

    def diff(self, axis: int) -> "ScalarPoly":
        i = axis - 1
        out = {}
        for e, c in self.terms.items():
            a = e[i]
            if a == 0:
                continue
            low = list(e)
            low[i] = a - 1
            out[tuple(low)] = c * a
        return ScalarPoly._raw(out)

    def divide_coord(self, axis: int) -> "ScalarPoly":
        i = axis - 1
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                raise ValueError(f"not divisible by x{axis}")
            low = list(e)
            low[i] = e[i] - 1
            out[tuple(low)] = c
        return ScalarPoly._raw(out)

    def dunkl(self, axis: int, mu: Fraction) -> "ScalarPoly":
        # T(x^a) = a x^(a-1) for even a, (a + 2 mu) x^(a-1) for odd a;
        # the reflection difference keeps only odd powers, so the coordinate
        # division in the definition is always exact.
        i = axis - 1
        out = {}
        for e, c in self.terms.items():
            a = e[i]
            if a == 0:
                continue
            factor = Fraction(a) if a % 2 == 0 else a + 2 * mu
            if not factor:
                continue
            low = list(e)
            low[i] = a - 1
            key = tuple(low)
            add = c * factor
            s = out.get(key)
            out[key] = add if s is None else s + add
        return ScalarPoly._raw(out)

    def set_coordinate_zero(self, axis: int) -> "ScalarPoly":
        i = axis - 1
        return ScalarPoly._raw({e: c for e, c in self.terms.items() if e[i] == 0})


class SpinorPoly:
    """Two-component spinor polynomial (up along chi+, down along chi-),
    immutable, stored as its reduced column (see the module docstring).
    `up` and `down` are read-only views, new `ScalarPoly` values."""

    __slots__ = ("column",)

    def __init__(self, up: ScalarPoly | None = None, down: ScalarPoly | None = None):
        den, entries = integer_form(chain(
            (((1, e), c) for e, c in (up.terms.items() if up is not None else ())),
            (((-1, e), c) for e, c in (down.terms.items() if down is not None else ())),
        ))
        self.column = (den, {key: (re, im) for key, re, im in entries})

    @classmethod
    def from_column(cls, column: tuple) -> "SpinorPoly":
        """The spinor polynomial of a reduced column over (sign, exps) keys,
        which it keeps without copying."""
        self = object.__new__(cls)
        self.column = column
        return self

    @classmethod
    def zero(cls) -> "SpinorPoly":
        return cls.from_column((1, {}))

    @classmethod
    def unit(cls, sign: int) -> "SpinorPoly":
        """The constant spinor chi+ (sign = +1) or chi- (sign = -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls.monomial((0, 0, 0), sign)

    @classmethod
    def monomial(cls, exps, sign: int, coef=1) -> "SpinorPoly":
        scalar = ScalarPoly.monomial(exps, coef)
        return cls(scalar, None) if sign == 1 else cls(None, scalar)

    @property
    def up(self) -> ScalarPoly:
        return self._component(1)

    @property
    def down(self) -> ScalarPoly:
        return self._component(-1)

    def _component(self, sign: int) -> ScalarPoly:
        den, entries = self.column
        return ScalarPoly._raw({
            exps: _coefficient(den, re, im)
            for (s, exps), (re, im) in entries.items() if s == sign
        })

    def __add__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly.from_column(combine([(1, 0, self.column), (1, 0, other.column)], 1))

    def __sub__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly.from_column(combine([(1, 0, self.column), (-1, 0, other.column)], 1))

    def __neg__(self) -> "SpinorPoly":
        return SpinorPoly.from_column(combine([(-1, 0, self.column)], 1))

    def scale(self, value) -> "SpinorPoly":
        value = as_grational(value)
        den = lcm_of_denominators((value.re, value.im))
        return SpinorPoly.from_column(combine(
            [(scaled(value.re, den), scaled(value.im, den), self.column)], den
        ))

    def __eq__(self, other):
        if not isinstance(other, SpinorPoly):
            return NotImplemented
        return self.column == other.column

    def __bool__(self):
        return bool(self.column[1])

    def __repr__(self):
        return f"SpinorPoly(up={self.up!r}, down={self.down!r})"

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(exps) for _, exps in self.column[1]), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(exps) for _, exps in self.column[1]}) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous spinor polynomial."""
        if not self:
            raise ValueError("zero spinor polynomial has no homogeneous degree")
        if not self.is_homogeneous():
            raise ValueError("spinor polynomial is not homogeneous")
        return self.degree()

    def involves(self, axis: int) -> bool:
        return any(exps[axis - 1] for _, exps in self.column[1])

    def to_json_dict(self) -> dict:
        den, entries = self.column
        return {name: [
            {"exp": list(exps), "coef": _coefficient(den, *entries[sign, exps]).to_json_dict()}
            for exps in sorted(exps for s, exps in entries if s == sign)
        ] for name, sign in (("up", 1), ("down", -1))}


# ---------------------------------------------------------------------------
# Columns: exact polynomials over the Gaussian integers.

def scaled(value: Fraction, den: int) -> int:
    """The integer value * den, for a den that value's denominator divides."""
    return value.numerator * (den // value.denominator)


def lcm_of_denominators(values) -> int:
    den = 1
    for value in values:
        d = value.denominator
        if den % d:
            den = den // math.gcd(den, d) * d
    return den


def integer_form(items) -> tuple:
    """(den, ((key, re, im), ...)) for (key, value) items with distinct
    keys: each nonzero value is (re + i im) / den, sorted by key, and den is
    the lcm of the denominators, so coprime to the entries together."""
    values = sorted((key, c) for key, c in ((k, as_grational(v)) for k, v in items) if c)
    den = lcm_of_denominators(part for _, c in values for part in (c.re, c.im))
    return den, tuple((key, scaled(c.re, den), scaled(c.im, den)) for key, c in values)


def reduced(den: int, entries: dict) -> tuple:
    """The reduced column of entries / den: zero entries dropped, den > 0
    coprime to the entries (den = 1 for the zero column)."""
    entries = {key: value for key, value in entries.items() if value[0] or value[1]}
    if den == 1 or not entries:
        return (1, entries)
    g = math.gcd(den, *chain.from_iterable(entries.values()))
    if g == 1:
        return (den, entries)
    return (den // g, {key: (re // g, im // g) for key, (re, im) in entries.items()})


def combine(parts: list, den: int) -> tuple:
    """Reduced column of (sum of (cr + i ci) * column) / den over the
    (cr, ci, column) triples in parts."""
    common = 1
    for _, _, (d, _) in parts:
        if common % d:
            common = common // math.gcd(common, d) * d
    out: dict = {}
    get = out.get
    for cr, ci, (d, entries) in parts:
        if d != common:
            m = common // d
            cr *= m
            ci *= m
        if ci:
            for key, (re, im) in entries.items():
                x = cr * re - ci * im
                y = cr * im + ci * re
                acc = get(key)
                out[key] = (x, y) if acc is None else (acc[0] + x, acc[1] + y)
        else:
            for key, (re, im) in entries.items():
                x = cr * re
                y = cr * im
                acc = get(key)
                out[key] = (x, y) if acc is None else (acc[0] + x, acc[1] + y)
    return reduced(common * den, out)


def _coefficient(den: int, re: int, im: int) -> GRational:
    return GRational(Fraction(re, den), Fraction(im, den))


# ---------------------------------------------------------------------------
# Primitive operators.

def reflect(f: SpinorPoly, axis: int) -> SpinorPoly:
    """Flip the sign of the given coordinate; spinor components untouched."""
    return SpinorPoly(f.up.reflect(axis), f.down.reflect(axis))


def diff(f: SpinorPoly, axis: int) -> SpinorPoly:
    return SpinorPoly(f.up.diff(axis), f.down.diff(axis))


def divide_by_coordinate(f: SpinorPoly, axis: int) -> SpinorPoly:
    """Exact quotient by a coordinate; raises if any monomial lacks it."""
    return SpinorPoly(f.up.divide_coord(axis), f.down.divide_coord(axis))


def dunkl(f: SpinorPoly, axis: int, params: Params) -> SpinorPoly:
    """Dunkl derivative d/dx_i + (mu_i / x_i)(1 - R_i); lowers degree by one."""
    mu = params.mu(axis)
    return SpinorPoly(f.up.dunkl(axis, mu), f.down.dunkl(axis, mu))


def pauli(f: SpinorPoly, index: int) -> SpinorPoly:
    """Apply the Pauli matrix of the given index to the spinor components."""
    if index == 1:
        return SpinorPoly(f.down, f.up)
    if index == 2:
        return SpinorPoly(f.down.scale(MINUS_I), f.up.scale(I))
    if index == 3:
        return SpinorPoly(f.up, -f.down)
    raise ValueError("Pauli index must be 1, 2 or 3")


def euler(f: SpinorPoly, axes: tuple[int, ...] = (1, 2, 3)) -> SpinorPoly:
    """Euler (dilation) operator: scales each monomial by its degree in axes."""
    idx = tuple(a - 1 for a in axes)

    def component(p: ScalarPoly) -> ScalarPoly:
        out = {}
        for e, c in p.terms.items():
            d = sum(e[i] for i in idx)
            if d:
                out[e] = c * d
        return ScalarPoly._raw(out)

    return SpinorPoly(component(f.up), component(f.down))


def coordinate_multiply(f: SpinorPoly, axis: int) -> SpinorPoly:
    var = ScalarPoly.variable(axis)
    return SpinorPoly(f.up * var, f.down * var)


# ---------------------------------------------------------------------------
# Monomial bases.

def monomial_exponents(degree: int, axes: tuple[int, ...] = (1, 2, 3)) -> list[MultiIndex]:
    """All exponent triples of the given total degree supported on axes,
    lexicographically descending along axes."""
    if degree < 0:
        return []
    if not axes:
        raise ValueError("at least one axis required")
    heads = [()]  # the exponents along all axes but the last, lex descending
    for _ in axes[1:]:
        heads = [h + (v,) for h in heads for v in range(degree - sum(h), -1, -1)]
    out: list[MultiIndex] = []
    for head in heads:
        exps = [0, 0, 0]
        for axis, v in zip(axes, head + (degree - sum(head),)):
            exps[axis - 1] = v
        out.append(tuple(exps))
    return out


def spinor_basis_labels(degree: int, axes: tuple[int, ...] = (1, 2, 3)):
    """Deterministic (exponents, sign) labels spanning the degree slice."""
    return [
        (exps, sign)
        for exps in monomial_exponents(degree, axes)
        for sign in (1, -1)
    ]
