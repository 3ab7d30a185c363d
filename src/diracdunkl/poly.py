"""Sparse spinor-valued polynomials in x1, x2, x3 over the Gaussian rationals.

A scalar polynomial is a map from exponent triples to nonzero coefficients,
so two polynomials are equal exactly when the maps are equal.  A spinor
polynomial carries two scalar components along the basis spinors
chi+ = (1, 0) and chi- = (0, 1); this ordering fixes the sign conventions of
the second and third Pauli actions.

The module also provides reference versions of the primitive operators:
coordinate reflection, partial derivative, exact division by a coordinate,
the Dunkl derivative, the Pauli matrix action, the Euler operator and
coordinate multiplication.  The package applies operators through the
integer kernels of `operators`; the tests compare those kernels, and the
extension maps built on them, against these definitions.
"""

from __future__ import annotations

from fractions import Fraction

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

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def involves(self, axis: int) -> bool:
        return any(e[axis - 1] for e in self.terms)

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

    def sorted_terms(self):
        return sorted(self.terms.items())


class SpinorPoly:
    """Two-component spinor polynomial (up along chi+, down along chi-)."""

    __slots__ = ("up", "down")

    def __init__(self, up: ScalarPoly | None = None, down: ScalarPoly | None = None):
        self.up = up if up is not None else ScalarPoly.zero()
        self.down = down if down is not None else ScalarPoly.zero()

    @classmethod
    def zero(cls) -> "SpinorPoly":
        return cls()

    @classmethod
    def unit(cls, sign: int) -> "SpinorPoly":
        """The constant spinor chi+ (sign = +1) or chi- (sign = -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        scalar = ScalarPoly.constant(1)
        return cls(scalar, None) if sign == 1 else cls(None, scalar)

    @classmethod
    def monomial(cls, exps, sign: int, coef=1) -> "SpinorPoly":
        scalar = ScalarPoly.monomial(exps, coef)
        return cls(scalar, None) if sign == 1 else cls(None, scalar)

    def __add__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly(self.up + other.up, self.down + other.down)

    def __sub__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly(self.up - other.up, self.down - other.down)

    def __neg__(self) -> "SpinorPoly":
        return SpinorPoly(-self.up, -self.down)

    def scale(self, value) -> "SpinorPoly":
        return SpinorPoly(self.up.scale(value), self.down.scale(value))

    def mul_scalar_poly(self, scalar: ScalarPoly) -> "SpinorPoly":
        return SpinorPoly(self.up * scalar, self.down * scalar)

    def __eq__(self, other):
        if not isinstance(other, SpinorPoly):
            return NotImplemented
        return self.up == other.up and self.down == other.down

    def __bool__(self):
        return bool(self.up) or bool(self.down)

    def __repr__(self):
        return f"SpinorPoly(up={self.up!r}, down={self.down!r})"

    def degree(self) -> int:
        return max(self.up.degree(), self.down.degree())

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.up.terms} | {sum(e) for e in self.down.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous spinor polynomial."""
        if not self:
            raise ValueError("zero spinor polynomial has no homogeneous degree")
        if not self.is_homogeneous():
            raise ValueError("spinor polynomial is not homogeneous")
        return self.degree()

    def involves(self, axis: int) -> bool:
        return self.up.involves(axis) or self.down.involves(axis)

    def to_json_dict(self) -> dict:
        def component(p: ScalarPoly):
            return [
                {"exp": list(e), "coef": c.to_json_dict()} for e, c in p.sorted_terms()
            ]

        return {"up": component(self.up), "down": component(self.down)}


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
    """All exponent triples of the given total degree supported on axes."""
    if degree < 0:
        return []
    positions = [a - 1 for a in axes]
    out: list[MultiIndex] = []

    def fill(pos: int, remaining: int, current: list[int]):
        if pos == len(positions) - 1:
            exps = [0, 0, 0]
            for p, v in zip(positions, current + [remaining]):
                exps[p] = v
            out.append(tuple(exps))
            return
        for v in range(remaining, -1, -1):
            fill(pos + 1, remaining - v, current + [v])

    if not positions:
        raise ValueError("at least one axis required")
    if len(positions) == 1:
        exps = [0, 0, 0]
        exps[positions[0]] = degree
        return [tuple(exps)]
    fill(0, degree, [])
    return out


def spinor_basis_labels(degree: int, axes: tuple[int, ...] = (1, 2, 3)):
    """Deterministic (exponents, sign) labels spanning the degree slice."""
    return [
        (exps, sign)
        for exps in monomial_exponents(degree, axes)
        for sign in (1, -1)
    ]


# ---------------------------------------------------------------------------
# Coordinates of spinor polynomials in a shared monomial-spinor frame,
# used by the exact linear solves.

def coordinate_keys(polys) -> list:
    keys = set()
    for f in polys:
        for e in f.up.terms:
            keys.add((0, e))
        for e in f.down.terms:
            keys.add((1, e))
    return sorted(keys)


def coordinates(f: SpinorPoly, keys: list) -> list[GRational]:
    zero = GRational(0)
    out = []
    for comp, e in keys:
        source = f.up.terms if comp == 0 else f.down.terms
        out.append(source.get(e, zero))
    return out
