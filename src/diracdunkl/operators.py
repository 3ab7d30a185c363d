"""Composable linear operators on spinor polynomials, and an exact identity
checker.

Every operator here is linear over the Gaussian rationals, so an identity
verified on all monomial-spinor basis elements of degrees 0..d is an identity
on the whole space of spinor polynomials of degree at most d.  The checker
exploits this: it applies both sides to each basis element and demands exact
equality, reporting the first counterexample on failure.

Operators are expression trees over primitives that are plain data: a
hashable tag such as ("dunkl", axis, mu) or ("pauli", i), whose integer
kernel maps one monomial spinor to a column, the reduced Gaussian-integer
form that `poly` defines and `SpinorPoly` stores.  The "scalar" and "matrix"
primitives act on columns over any hashable keys, such as the states (k,) of
a finite-dimensional representation (see `image_columns`).

Evaluation, both for `LinOp.__call__` and for the checker, first merges
structurally equal nodes of the trees it is given and folds each sum of
scaled terms into one linear combination.  A merged node with two or more
parents (an identity side counts as a parent) is shared: it caches the image
column of each monomial spinor and applies to a column by linearity.
A cache lasts as long as its merged graph: a `LinOp` compiles its tree on
its first call and keeps the graph, and `verify_identities` and
`image_columns` compile one graph per call, whose caches serve every degree
slice and key of that call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import HALF, MINUS_I, GRational, Params, as_grational
from .poly import (
    ScalarPoly,
    SpinorPoly,
    combine,
    integer_form,
    lcm_of_denominators,
    reduced,
    scaled,
    spinor_basis_labels,
)
# The reference for the ("dunkl", axis, mu) kernel, kept importable from here
# because benchmarks/test_harness.py patches and restores `operators.dunkl`.
from .poly import dunkl  # noqa: F401

_UNIT = (1, 0)
_ONE = GRational(1)


class LinOp:
    """Linear map on spinor polynomials, closed under +, -, scaling,
    composition (via *) and integer powers.

    Each value is an expression node: a primitive, whose `payload` is its
    tag, or a sum, difference, negation, scaling or composition of its
    `operands`.  A scaling keeps its factor in `payload`.

    The first call compiles the tree into a merged graph (`_compile`) and
    keeps it; the image columns memoized at its shared nodes last as long
    as the value.  Build an operator once and apply it to a whole basis.
    """

    __slots__ = ("kind", "operands", "payload", "_root")

    def __init__(self, kind: str, operands: tuple = (), payload=None):
        self.kind = kind
        self.operands = operands
        self.payload = payload
        self._root = None

    def __call__(self, f: SpinorPoly) -> SpinorPoly:
        root = self._root
        if root is None:
            (root,) = _compile([self])
            self._root = root
        return SpinorPoly.from_column(_eval(root, f.column))

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


def primitive(*tag) -> LinOp:
    """Primitive operator named by a hashable tag; see `_kernel`."""
    return LinOp("primitive", (), tag)


def identity() -> LinOp:
    return scalar_op(1)


def zero_op() -> LinOp:
    return scalar_op(0)


def scalar_op(value) -> LinOp:
    return primitive("scalar", as_grational(value))


def reflect_op(axis: int) -> LinOp:
    return primitive("reflect", axis)


def pauli_op(index: int) -> LinOp:
    if index not in (1, 2, 3):
        raise ValueError("Pauli index must be 1, 2 or 3")
    return primitive("pauli", index)


def dunkl_op(axis: int, params: Params) -> LinOp:
    return primitive("dunkl", axis, params.mu(axis))


def partial_op(axis: int) -> LinOp:
    return primitive("diff", axis)


def coordinate_op(axis: int) -> LinOp:
    return primitive("coord", axis)


def multiply_op(scalar: ScalarPoly) -> LinOp:
    """Multiplication by a scalar polynomial, stored in integer form as
    ("multiply", den, ((exps, re, im), ...))."""
    return primitive("multiply", *integer_form(scalar.terms.items()))


def matrix_op(entries: dict) -> LinOp:
    """The linear map with the given {(row, column): value} entries over
    hashable keys, sending every key that is no column to zero.  Stored in
    the integer form of `multiply_op`, as ("matrix", den, (((column, row),
    re, im), ...)) sorted by column and row, so equal matrices merge."""
    return primitive("matrix", *integer_form(
        ((column, row), value) for (row, column), value in entries.items()
    ))


def euler_op(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    return primitive("euler", tuple(axes))


def commutator(a: LinOp, b: LinOp) -> LinOp:
    return a * b - b * a


def anticommutator(a: LinOp, b: LinOp) -> LinOp:
    return a * b + b * a


def cyclic(i: int) -> tuple[int, int]:
    """The pair completing (i, j, k) to a cyclic permutation of (1, 2, 3)."""
    return (i % 3 + 1, (i + 1) % 3 + 1)


def _sum(ops) -> LinOp:
    ops = iter(ops)
    out = next(ops)
    for op in ops:
        out = out + op
    return out


# ---------------------------------------------------------------------------
# Named operators.

def dirac(params: Params, axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Dirac-Dunkl operator: sum of Pauli-weighted Dunkl derivatives."""
    return _sum(pauli_op(a) * dunkl_op(a, params) for a in axes)


def x_underline(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Clifford coordinate multiplication: sum of sigma_a x_a."""
    return _sum(pauli_op(a) * coordinate_op(a) for a in axes)


def norm_sq(axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Multiplication by the squared radius over the given axes."""
    return _sum(coordinate_op(a) * coordinate_op(a) for a in axes)


def laplace(params: Params, axes: tuple[int, ...] = (1, 2, 3)) -> LinOp:
    """Laplace-Dunkl operator as composed squares of Dunkl derivatives."""
    return _sum(dunkl_op(a, params) * dunkl_op(a, params) for a in axes)


def laplace_explicit(params: Params) -> LinOp:
    """Laplace-Dunkl operator in explicit second-order form.

    Per coordinate the action on x^a is
    [a (a-1) + 2 mu a - mu (1 - (-1)^a)] x^(a-2), which vanishes for a <= 1,
    so the combined second-order/difference expression never leaves the
    polynomial ring even though its summands individually would.
    """
    return primitive("laplace_explicit", params.mu1, params.mu2, params.mu3)


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
# Integer kernels of the primitives.

def _shift(exps: tuple, i: int, delta: int) -> tuple:
    low = list(exps)
    low[i] += delta
    return tuple(low)


def _kernel(tag: tuple):
    """(den, image) for a primitive tag, where image(key) lists the triples
    (key', re, im) of the image of the basis vector of key: the sum of
    (re + i im) / den times the basis vector of key'.  The spinor kernels
    take monomial-spinor keys (sign, exps); "scalar" and "matrix" act on
    any hashable keys."""
    name = tag[0]
    if name == "scalar":
        value = tag[1]
        den = lcm_of_denominators((value.re, value.im))
        re, im = scaled(value.re, den), scaled(value.im, den)
        if not (re or im):
            return 1, lambda key: ()
        return den, lambda key: ((key, re, im),)
    if name == "matrix":
        columns: dict = {}
        for (column, row), re, im in tag[2]:
            columns.setdefault(column, []).append((row, re, im))
        return tag[1], lambda key: columns.get(key, ())
    if name == "pauli":
        index = tag[1]
        if index == 1:
            return 1, lambda key: (((-key[0], key[1]), 1, 0),)
        if index == 2:  # chi+ -> i chi-, chi- -> -i chi+
            return 1, lambda key: (((-key[0], key[1]), 0, key[0]),)
        return 1, lambda key: ((key, key[0], 0),)
    if name == "reflect":
        i = tag[1] - 1
        return 1, lambda key: ((key, -1 if key[1][i] % 2 else 1, 0),)
    if name == "coord":
        i = tag[1] - 1
        return 1, lambda key: (((key[0], _shift(key[1], i, 1)), 1, 0),)
    if name == "diff":
        i = tag[1] - 1
        return 1, lambda key: (
            (((key[0], _shift(key[1], i, -1)), key[1][i], 0),) if key[1][i] else ()
        )
    if name == "euler":
        idx = [a - 1 for a in tag[1]]

        def euler_image(key):
            d = sum(key[1][i] for i in idx)
            return ((key, d, 0),) if d else ()

        return 1, euler_image
    if name == "dunkl":
        # T(x^a) = a x^(a-1) for even a, (a + 2 mu) x^(a-1) for odd a.
        i, mu = tag[1] - 1, tag[2]
        p, q = mu.numerator, mu.denominator

        def dunkl_image(key):
            sign, exps = key
            a = exps[i]
            factor = a * q if a % 2 == 0 else a * q + 2 * p
            return (((sign, _shift(exps, i, -1)), factor, 0),) if factor else ()

        return q, dunkl_image
    if name == "laplace_explicit":
        mus = tag[1:]
        den = lcm_of_denominators(mus)
        nums = [scaled(mu, den) for mu in mus]

        def laplace_image(key):
            sign, exps = key
            out = []
            for i in range(3):
                a = exps[i]
                if a < 2:
                    continue
                factor = a * (a - 1) * den + nums[i] * (2 * a - (1 - (-1) ** a))
                if factor:
                    out.append(((sign, _shift(exps, i, -2)), factor, 0))
            return out

        return den, laplace_image
    if name == "multiply":
        den, terms = tag[1], tag[2]

        def multiply_image(key):
            sign, exps = key
            return [
                ((sign, (exps[0] + e[0], exps[1] + e[1], exps[2] + e[2])), re, im)
                for e, re, im in terms
            ]

        return den, multiply_image
    raise ValueError(f"unknown primitive {name!r}")


# ---------------------------------------------------------------------------
# Merged expression graphs and their evaluation.

class _Node:
    """A node of the merged graph, with the kind and payload of its LinOp
    and merged `args`.  `_compile` rewrites sums, differences, negations and
    scalings into "linear" nodes whose `data` lists (cr, ci, child) terms
    over `den`, child None standing for the identity; a primitive keeps its
    kernel in `den` and `data`.  `memo` caches image columns by monomial
    spinor at shared nodes and is None elsewhere."""

    __slots__ = ("kind", "args", "payload", "den", "data", "parents", "memo")

    def __init__(self, kind: str, args: tuple, payload):
        self.kind = kind
        self.args = args
        self.payload = payload
        self.parents = 0
        self.memo = None


_LINEAR = ("add", "sub", "neg", "scale")


def _linear_terms(node: _Node, coef: GRational, terms: dict) -> None:
    """Add coef * node to terms (a map from child, or None for the
    identity, to its coefficient), expanding the linear nodes that have no
    other parent and folding scalar primitives into the identity."""
    kind, args = node.kind, node.args
    if kind == "add":
        _expand(args[0], coef, terms)
        _expand(args[1], coef, terms)
    elif kind == "sub":
        _expand(args[0], coef, terms)
        _expand(args[1], -coef, terms)
    elif kind == "neg":
        _expand(args[0], -coef, terms)
    else:
        _expand(args[0], coef * node.payload, terms)


def _expand(node: _Node, coef: GRational, terms: dict) -> None:
    if node.kind in _LINEAR and node.parents == 1:
        _linear_terms(node, coef, terms)
        return
    if node.kind == "primitive" and node.payload[0] == "scalar":
        coef, node = coef * node.payload[1], None
    previous = terms.get(node)
    terms[node] = coef if previous is None else previous + coef


def _merge(op: LinOp, merged: dict, by_id: dict) -> _Node:
    """The merged node of op, for `_compile`.  Not a closure: a recursive
    closure is a reference cycle that keeps the graph alive until a GC pass."""
    node = by_id.get(id(op))
    if node is None:
        args = tuple(_merge(arg, merged, by_id) for arg in op.operands)
        key = (op.kind, op.payload, args)
        node = merged.get(key)
        if node is None:
            node = merged[key] = _Node(op.kind, args, op.payload)
            for arg in args:
                arg.parents += 1
        by_id[id(op)] = node
    return node


def _compile(roots: list[LinOp]) -> list[_Node]:
    """Merge structurally equal nodes of the graphs spanned by roots, and
    flatten each maximal sum of unshared linear nodes into one "linear"
    node.  Returns the merged roots; each entry of roots counts as one
    parent of its node, and every shared node gets an empty `memo`."""
    merged: dict = {}
    by_id: dict = {}
    out = [_merge(op, merged, by_id) for op in roots]
    for node in out:
        node.parents += 1
    nodes = list(merged.values())
    expansions = {}
    for node in nodes:
        if node.kind in _LINEAR:
            terms: dict = {}
            _linear_terms(node, _ONE, terms)
            expansions[node] = [(child, c) for child, c in terms.items() if c]
    for node in nodes:
        if node.kind == "primitive":
            node.den, node.data = _kernel(node.payload)
        elif node in expansions:
            terms = expansions[node]
            den = lcm_of_denominators(part for _, c in terms for part in (c.re, c.im))
            node.kind, node.args, node.den = "linear", (), den
            node.data = [(scaled(c.re, den), scaled(c.im, den), child) for child, c in terms]
    for node in nodes:
        if node.parents > 1 and node.kind != "primitive":
            node.memo = {}
    return out


def _eval(node: _Node, column: tuple) -> tuple:
    """Image of a column under a merged node."""
    memo = node.memo
    if memo is None:
        return _direct(node, column)
    den, entries = column
    parts = []
    for key, (re, im) in entries.items():
        image = memo.get(key)
        if image is None:
            image = memo[key] = _direct(node, (1, {key: _UNIT}))
        parts.append((re, im, image))
    if den == 1 and len(parts) == 1 and parts[0][:2] == _UNIT:
        return parts[0][2]
    return combine(parts, den)


def _direct(node: _Node, column: tuple) -> tuple:
    kind = node.kind
    if kind == "linear":
        return combine([
            (cr, ci, column if child is None else _eval(child, column))
            for cr, ci, child in node.data
        ], node.den)
    if kind == "compose":
        inner = _eval(node.args[1], column)
        return _eval(node.args[0], inner) if inner[1] else inner
    if kind == "primitive":
        image = node.data
        out: dict = {}
        get = out.get
        for source, (re, im) in column[1].items():
            for key, kr, ki in image(source):
                if ki:
                    x, y = re * kr - im * ki, re * ki + im * kr
                else:
                    x, y = re * kr, im * kr
                acc = get(key)
                out[key] = (x, y) if acc is None else (acc[0] + x, acc[1] + y)
        return reduced(column[0] * node.den, out)
    raise ValueError(f"unknown operator node {kind!r}")


def image_columns(ops: list[LinOp], keys: list) -> list[list[tuple]]:
    """The image column of each op on the basis vector of each key, from
    one merged graph whose shared nodes memoize their images across ops and
    keys: result[i][j] is ops[i] applied to keys[j]."""
    roots = _compile(ops)
    return [[_eval(root, (1, {key: _UNIT})) for key in keys] for root in roots]


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
) -> list[IdentityReport]:
    """Check each (name, lhs, rhs) item on every monomial spinor of degree
    0..max_degree, in the order degree, basis element, identity.

    Passing certifies an identity on the full space of those degrees, by
    linearity.  A failing identity records its first counterexample and is
    not applied again.  All sides are evaluated on one merged graph whose
    shared nodes cache their image columns for the whole batch, so an
    operator that lowers the degree reuses the images of lower slices.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    roots = _compile([op for _, lhs, rhs in items for op in (lhs, rhs)])
    sides = list(zip(roots[::2], roots[1::2]))
    basis_size = 0

    def report(name: str, counterexample: dict | None = None) -> IdentityReport:
        status = "pass" if counterexample is None else "fail"
        return IdentityReport(name, 0, max_degree, basis_size, status, counterexample)

    failed: list[IdentityReport | None] = [None] * len(items)
    for degree in range(max_degree + 1):
        for exps, sign in spinor_basis_labels(degree):
            basis_size += 1
            unit = (1, {(sign, exps): _UNIT})
            for index, (lhs, rhs) in enumerate(sides):
                if failed[index] is not None:
                    continue
                left = _eval(lhs, unit)
                right = _eval(rhs, unit)
                if left != right:
                    failed[index] = report(items[index][0], {
                        "degree": degree,
                        "exponents": list(exps),
                        "spinor": "+" if sign == 1 else "-",
                        "lhs": SpinorPoly.from_column(left).to_json_dict(),
                        "rhs": SpinorPoly.from_column(right).to_json_dict(),
                    })
    return [bad or report(name) for bad, (name, _, _) in zip(failed, items)]


def verify_identity(
    lhs: LinOp,
    rhs: LinOp,
    max_degree: int,
    *,
    name: str = "",
) -> IdentityReport:
    """Check lhs = rhs on every monomial-spinor of degree 0..max_degree;
    a one-item `verify_identities`."""
    (report,) = verify_identities([(name, lhs, rhs)], max_degree)
    return report
