"""Composable linear operators on spinor polynomials, and an exact identity
checker.

Every operator here is linear over the Gaussian rationals, so an identity
verified on all monomial-spinor basis elements of degrees 0..d is an identity
on the whole space of spinor polynomials of degree at most d.  The checker
exploits this: it applies both sides to each basis element and demands exact
equality, reporting the first counterexample on failure.

Operators are expression trees.  When a batch of identities shares
subexpressions (the Bannai-Ito generators, the sCasimir, the Casimir), the
checker caches the image of each monomial spinor at the shared nodes, so each
of those columns is computed once per degree slice instead of once per
identity and per occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import HALF, MINUS_I, GRational, Params, as_grational
from .poly import (
    ScalarPoly,
    SpinorPoly,
    coordinate_multiply,
    diff,
    dunkl,
    euler,
    pauli,
    reflect,
    spinor_basis_labels,
)

_ONE = GRational(1)


class LinOp:
    """Linear map on spinor polynomials, closed under +, -, scaling,
    composition (via *) and integer powers.

    Each value is an expression node: a primitive (a function applied to a
    whole spinor polynomial, built from the `poly` operators) or a sum,
    difference, negation, scaling or composition of its `operands`.  A
    scaling keeps its factor in `payload`; a primitive keeps its function
    there.
    """

    __slots__ = ("kind", "operands", "payload")

    def __init__(self, kind: str, operands: tuple = (), payload=None):
        self.kind = kind
        self.operands = operands
        self.payload = payload

    def __call__(self, f: SpinorPoly) -> SpinorPoly:
        return _evaluate(self, f, None)

    def __add__(self, other: "LinOp") -> "LinOp":
        return LinOp("add", (self, other))

    def __sub__(self, other: "LinOp") -> "LinOp":
        return LinOp("sub", (self, other))

    def __neg__(self) -> "LinOp":
        return LinOp("neg", (self,))

    def __mul__(self, other):
        if isinstance(other, LinOp):
            return LinOp("compose", (self, other))
        return LinOp("scale", (self,), as_grational(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LinOp":
        if n < 0:
            raise ValueError("negative operator power")
        out = identity()
        for _ in range(n):
            out = out * self
        return out


def primitive(fn) -> LinOp:
    """Operator applying fn, a linear map, to whole spinor polynomials."""
    return LinOp("primitive", (), fn)


def _evaluate(op: LinOp, f: SpinorPoly, memo: dict | None) -> SpinorPoly:
    """Image of f under op, recursing through the operands.  Nodes that key
    a column cache in memo are applied through their cached columns."""
    kind = op.kind
    if kind == "primitive":
        return op.payload(f)
    args = op.operands
    if kind == "compose":
        inner = _apply(args[1], f, memo)
        return _apply(args[0], inner, memo) if inner else inner
    if kind == "add":
        return _apply(args[0], f, memo) + _apply(args[1], f, memo)
    if kind == "sub":
        return _apply(args[0], f, memo) - _apply(args[1], f, memo)
    if kind == "scale":
        return _apply(args[0], f, memo).scale(op.payload)
    if kind == "neg":
        return -_apply(args[0], f, memo)
    raise ValueError(f"unknown operator node {kind!r}")


def _apply(op: LinOp, f: SpinorPoly, memo: dict | None) -> SpinorPoly:
    if memo:
        columns = memo.get(op)
        if columns is not None:
            return _apply_by_columns(op, f, columns, memo)
    return _evaluate(op, f, memo)


def _apply_by_columns(op: LinOp, f: SpinorPoly, columns: dict, memo: dict) -> SpinorPoly:
    """Image of f by linearity: the sum of coefficient times the image
    column of each monomial spinor in f, with columns cached by key
    (exponents, sign)."""
    parts = []
    for sign, terms in ((1, f.up.terms), (-1, f.down.terms)):
        for exps, coef in terms.items():
            key = (exps, sign)
            column = columns.get(key)
            if column is None:
                unit = SpinorPoly.from_scalar(ScalarPoly._raw({exps: _ONE}), sign)
                column = columns[key] = _evaluate(op, unit, memo)
            parts.append((column, coef))
    if len(parts) == 1 and parts[0][1] == _ONE:
        return parts[0][0]
    up: dict = {}
    down: dict = {}
    for column, coef in parts:
        _add_scaled(up, column.up.terms, coef)
        _add_scaled(down, column.down.terms, coef)
    return SpinorPoly(ScalarPoly._raw(up), ScalarPoly._raw(down))


def _add_scaled(acc: dict, terms: dict, coef: GRational) -> None:
    for e, c in terms.items():
        term = c * coef
        s = acc.get(e)
        acc[e] = term if s is None else s + term


def _shared_nodes(roots: list[LinOp]) -> list[LinOp]:
    """Nodes with two or more parents in the graph spanned by roots, where
    each entry of roots counts as one parent of its node."""
    parents: dict[LinOp, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        count = parents.get(node, 0)
        parents[node] = count + 1
        if not count:
            stack.extend(node.operands)
    return [node for node, count in parents.items() if count > 1]


def identity() -> LinOp:
    return primitive(lambda f: f)


def zero_op() -> LinOp:
    return primitive(lambda f: SpinorPoly.zero())


def scalar_op(value) -> LinOp:
    value = as_grational(value)
    return primitive(lambda f: f.scale(value))


def reflect_op(axis: int) -> LinOp:
    return primitive(lambda f: reflect(f, axis))


def pauli_op(index: int) -> LinOp:
    return primitive(lambda f: pauli(f, index))


def dunkl_op(axis: int, params: Params) -> LinOp:
    return primitive(lambda f: dunkl(f, axis, params))


def partial_op(axis: int) -> LinOp:
    return primitive(lambda f: diff(f, axis))


def coordinate_op(axis: int) -> LinOp:
    return primitive(lambda f: coordinate_multiply(f, axis))


def multiply_op(scalar: ScalarPoly) -> LinOp:
    return primitive(lambda f: f.mul_scalar_poly(scalar))


def euler_op(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    return primitive(lambda f: euler(f, axes))


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a * b - b * a


def anticommutator(a: LinOp, b: LinOp) -> LinOp:
    return a * b + b * a


def cyclic(i: int) -> tuple[int, int]:
    """The pair completing (i, j, k) to a cyclic permutation of (1, 2, 3)."""
    return (i % 3 + 1, (i + 1) % 3 + 1)


# ---------------------------------------------------------------------------
# Named operators.

def dirac(params: Params, axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Dirac-Dunkl operator: sum of Pauli-weighted Dunkl derivatives."""
    def apply(f: SpinorPoly) -> SpinorPoly:
        out = SpinorPoly.zero()
        for a in axes:
            out = out + pauli(dunkl(f, a, params), a)
        return out

    return primitive(apply)


def x_underline(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Clifford coordinate multiplication: sum of sigma_a x_a."""
    def apply(f: SpinorPoly) -> SpinorPoly:
        out = SpinorPoly.zero()
        for a in axes:
            out = out + pauli(coordinate_multiply(f, a), a)
        return out

    return primitive(apply)


def norm_sq(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Multiplication by the squared radius over the given axes."""
    total = ScalarPoly.zero()
    for a in axes:
        total = total + ScalarPoly.variable(a) * ScalarPoly.variable(a)
    return multiply_op(total)


def laplace(params: Params, axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Laplace-Dunkl operator as composed squares of Dunkl derivatives."""
    def apply(f: SpinorPoly) -> SpinorPoly:
        out = SpinorPoly.zero()
        for a in axes:
            out = out + dunkl(dunkl(f, a, params), a, params)
        return out

    return primitive(apply)


def laplace_explicit(params: Params) -> LinOp:
    """Laplace-Dunkl operator in explicit second-order form.

    Per coordinate the action on x^a is
    [a (a-1) + 2 mu a - mu (1 - (-1)^a)] x^(a-2), which vanishes for a <= 1,
    so the combined second-order/difference expression never leaves the
    polynomial ring even though its summands individually would.
    """
    mus = (params.mu1, params.mu2, params.mu3)

    def component(p: ScalarPoly) -> ScalarPoly:
        out: dict = {}
        for e, c in p.terms.items():
            for i in range(3):
                a = e[i]
                if a < 2:
                    continue
                mu = mus[i]
                factor = Fraction(a * (a - 1)) + 2 * mu * a - mu * (1 - (-1) ** a)
                if not factor:
                    continue
                low = list(e)
                low[i] = a - 2
                key = tuple(low)
                add = c * factor
                s = out.get(key)
                out[key] = add if s is None else s + add
        return ScalarPoly._raw(out)

    return primitive(lambda f: SpinorPoly(component(f.up), component(f.down)))


def laplace_s2(params: Params) -> LinOp:
    """Spherical Laplace-Dunkl operator; preserves homogeneous degree."""
    shift = 2 * params.mu_sum + 1
    ee = euler_op()
    return norm_sq() * laplace(params) - ee * (ee + scalar_op(shift))


def angular(params: Params, i: int) -> LinOp:
    """Dunkl angular momentum along axis i (degree preserving)."""
    j, k = cyclic(i)
    return MINUS_I * (
        coordinate_op(j) * dunkl_op(k, params) - coordinate_op(k) * dunkl_op(j, params)
    )


def spherical_dirac(params: Params) -> LinOp:
    """Spherical Dirac-Dunkl operator: sigma . L + mu . R."""
    t1, t2, t3 = (
        pauli_op(i) * angular(params, i) + params.mu(i) * reflect_op(i)
        for i in (1, 2, 3)
    )
    return t1 + t2 + t3


def spherical_dirac_commutator(params: Params) -> LinOp:
    """The same operator built from the commutator of the Dirac and
    coordinate operators: (1/2)([D, x] - 1) - 1."""
    half_comm = HALF * commutator(dirac(params), x_underline())
    return half_comm - scalar_op(Fraction(3, 2))


def symmetry(params: Params, i: int) -> LinOp:
    """Degree-preserving symmetry of the spherical Dirac-Dunkl operator."""
    j, k = cyclic(i)
    wrapped = (
        scalar_op(params.mu(j)) * reflect_op(j)
        + scalar_op(params.mu(k)) * reflect_op(k)
        + scalar_op(HALF)
    )
    return angular(params, i) + pauli_op(i) * wrapped


def involution(i: int) -> LinOp:
    """Self-inverse symmetry sigma_i R_i."""
    return pauli_op(i) * reflect_op(i)


def bi_generator(params: Params, i: int) -> LinOp:
    """Bannai-Ito generator: -i J_i Z_j Z_k for the cyclic pair (j, k)."""
    j, k = cyclic(i)
    return MINUS_I * (symmetry(params, i) * involution(j) * involution(k))


def casimir(params: Params) -> LinOp:
    """Casimir element: sum of squared Bannai-Ito generators."""
    k1 = bi_generator(params, 1)
    k2 = bi_generator(params, 2)
    k3 = bi_generator(params, 3)
    return k1 * k1 + k2 * k2 + k3 * k3


def central_element(params: Params) -> LinOp:
    """The central element (Gamma + 1) R1 R2 R3 of the extended algebra."""
    return (
        (spherical_dirac(params) + scalar_op(1))
        * reflect_op(1)
        * reflect_op(2)
        * reflect_op(3)
    )


# ---------------------------------------------------------------------------
# Identity verification.

@dataclass
class IdentityReport:
    """Outcome of checking lhs = rhs on the monomial-spinor basis."""

    name: str
    degree_lo: int
    degree_hi: int
    basis_size: int
    status: str  # "pass" | "fail"
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "degrees": [self.degree_lo, self.degree_hi],
            "basis_size": self.basis_size,
            "status": self.status,
            "counterexample": self.counterexample,
        }


def verify_identities(
    items: list[tuple[str, LinOp, LinOp]],
    max_degree: int,
    *,
    axes: tuple[int, ...] = (1, 2, 3),
) -> list[IdentityReport]:
    """Check each (name, lhs, rhs) item on every monomial spinor of degree
    0..max_degree, in the order degree, basis element, identity.

    Passing certifies an identity on the full space of those degrees, by
    linearity.  A failing identity records its first counterexample and is
    not applied again.  Nodes shared by two or more parents across the
    batch cache their image columns; the caches hold one degree slice at a
    time and are dropped on return.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    shared = _shared_nodes([op for _, lhs, rhs in items for op in (lhs, rhs)])
    basis_size = 0

    def report(name: str, counterexample: dict | None = None) -> IdentityReport:
        status = "pass" if counterexample is None else "fail"
        return IdentityReport(name, 0, max_degree, basis_size, status, counterexample)

    failed: list[IdentityReport | None] = [None] * len(items)
    for degree in range(max_degree + 1):
        memo = {node: {} for node in shared}
        for exps, sign in spinor_basis_labels(degree, axes):
            basis_size += 1
            f = SpinorPoly.monomial(exps, sign)
            for index, (name, lhs, rhs) in enumerate(items):
                if failed[index] is not None:
                    continue
                left = _apply(lhs, f, memo)
                right = _apply(rhs, f, memo)
                if left != right:
                    failed[index] = report(name, {
                        "degree": degree,
                        "exponents": list(exps),
                        "spinor": "+" if sign == 1 else "-",
                        "lhs": left.to_json_dict(),
                        "rhs": right.to_json_dict(),
                    })
    return [bad or report(name) for bad, (name, _, _) in zip(failed, items)]


def verify_identity(
    lhs: LinOp,
    rhs: LinOp,
    max_degree: int,
    *,
    name: str = "",
    axes: tuple[int, ...] = (1, 2, 3),
) -> IdentityReport:
    """Check lhs = rhs on every monomial-spinor of degree 0..max_degree;
    a one-item `verify_identities`."""
    (report,) = verify_identities([(name, lhs, rhs)], max_degree, axes=axes)
    return report
