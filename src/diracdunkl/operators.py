"""Composable linear operators on spinor polynomials, and an exact identity
checker over explicit keys.

Every operator here is linear over the Gaussian rationals, so an identity
that holds on each basis vector of a list of keys holds on their whole span.
The checker (`first_failures`) applies both sides of each identity to the
basis vectors of its keys, one slice of keys at a time, and demands exact
equality, reporting the first key at which they differ.
`verify_identities` runs it on the monomial spinors of degrees 0..d, one
slice per degree, which certifies an identity on all spinor polynomials of
degree at most d.  An embedding (`embedding_op`) sends element keys, such
as the (k, sign) of a monogenic basis, to the elements' columns, so "op v =
lambda v for every element v" is the identity op E = E diag(lambda) on the
element keys.

Operators are expression trees over primitives that are plain data: a
hashable tag such as ("dunkl", axis, mu) or ("pauli", i), whose integer
kernel maps one monomial spinor to integer entries over a fixed denominator;
a coordinate is a "multiply" primitive like any scalar polynomial.  The
"scalar" and "matrix" primitives act on columns over any hashable keys, such
as the states (k,) of a finite-dimensional representation (see
`image_columns`).

Inside this module a monomial spinor x^a chi_s is one int, its packed key:
a1, a2 and a3 sit in fixed-width fields and the sign in the low bit (0 for
chi+), and the spinor kernels read and shift exponents with masks.  Keys
are packed where spinor columns come in (`LinOp.__call__`, `embedding_op`,
`spinor_keys`, `verify_identities`) and unpacked where they go out (the
result of a `LinOp` call and the counterexamples of `verify_identities`);
`image_columns` and `first_failures` return columns over the keys they
evaluate.  An exponent that does not fit its field is a ValueError, and so
is a graph whose degree rise, bounded when it is compiled, could carry one
past it.

Evaluation first merges structurally equal nodes of the trees it is given
and folds each sum of scaled terms into one linear combination.  Each
merged node gets one denominator when the graph is compiled, and nodes pass
unreduced integer entry dicts to each other: the image of entries / d is
some result / (d * den(node)).  Only the result at a root is reduced, once,
to the column that `poly` defines and `SpinorPoly` stores.  The checker
compiles one difference root lhs - rhs per identity, so a passing identity
reduces nothing.

The graph runs node by node over a batch of columns: a `LinOp` call is a
batch of one column, `image_columns` one batch of unit columns, and
`first_failures` one batch per slice, in which a pair that failed on an
earlier slice is not evaluated again.  Evaluation pushes: a node is handed
its caller's accumulators and a Gaussian-integer coefficient, and adds its
scaled image straight into them, so a sum builds no column of its own per
term; only the inner image of a composition is materialized, as the
columns of its outer factor.  A merged node with two or more parents is
shared: it memoizes the integer image of each basis vector, filled for all
of a batch's missing keys at once, and applies to a column by linearity.
A memo lasts as long as its merged graph: a `LinOp` compiles its tree on
its first call and keeps the graph, and `first_failures` and
`image_columns` compile one graph per call, whose memos serve every key of
that call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .exact import HALF, MINUS_I, GRational, Params, as_grational
from .poly import (
    SpinorPoly,
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
_EMPTY: dict = {}


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
        den, entries = f.column
        column = {_pack(sign, exps): value for (sign, exps), value in entries.items()}
        _check_fits([root], column)
        (image,) = _evaluate(root, [column])
        return SpinorPoly.from_column(_unpacked(reduced(den * root.den, image)))

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


def coordinate_op(axis: int) -> LinOp:
    return multiply_op((1, {tuple(int(a == axis) for a in (1, 2, 3)): (1, 0)}))


def multiply_op(scalar: tuple) -> LinOp:
    """Multiplication by the scalar polynomial of a reduced column
    (den, {exps: (re, im)}), stored as ("multiply", den, ((exps, re, im),
    ...)) sorted by exponents, so equal polynomials merge."""
    den, terms = scalar
    return primitive("multiply", den, tuple((e, *value) for e, value in sorted(terms.items())))


def matrix_op(entries: dict) -> LinOp:
    """The linear map with the given {(row, column): value} entries over
    hashable keys, sending every key that is no column to zero.  Stored in
    integer form like `multiply_op`, as ("matrix", den, (((column, row),
    re, im), ...)) sorted by column and row, so equal matrices merge."""
    return primitive("matrix", *integer_form(
        ((column, row), value) for (row, column), value in entries.items()
    ))


def embedding_op(columns: dict) -> LinOp:
    """The linear map sending the basis vector of each key to its reduced
    spinor column, for {key: (den, {(sign, exps): (re, im)})}: a "matrix"
    primitive over the common denominator and the packed rows, built on the
    integer entries."""
    den = math.lcm(*(d for d, _ in columns.values()))
    return primitive("matrix", den, tuple(
        ((key, _pack(*row)), re * (den // d), im * (den // d))
        for key, (d, entries) in columns.items() for row, (re, im) in entries.items()
    ))


def euler_op() -> LinOp:
    return primitive("euler")


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


def norm_sq() -> LinOp:
    """Multiplication by the squared radius."""
    return _sum(coordinate_op(a) * coordinate_op(a) for a in (1, 2, 3))


def laplace(params: Params) -> LinOp:
    """Laplace-Dunkl operator as composed squares of Dunkl derivatives."""
    return _sum(dunkl_op(a, params) * dunkl_op(a, params) for a in (1, 2, 3))


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
# Packed monomial keys.

# Bits per exponent field of a packed key, far above the exponents that the
# commands reach (`basis --N 60`).  Three fields and the sign bit make 31
# bits, two CPython digits; 19-bit fields would still fit in two, and 9-bit
# fields, one digit, measured no faster.
_FIELD = 10
_LIMIT = (1 << _FIELD) - 1
_SHIFTS = (2 * _FIELD + 1, _FIELD + 1, 1)  # of a1, a2, a3


def _pack(sign: int, exps: tuple) -> int:
    """The packed key of x^exps chi_sign; ValueError for an exponent that
    does not fit its field."""
    a1, a2, a3 = exps
    if not (0 <= a1 <= _LIMIT and 0 <= a2 <= _LIMIT and 0 <= a3 <= _LIMIT):
        raise ValueError(f"exponents {tuple(exps)!r} do not fit {_FIELD}-bit fields")
    return a1 << _SHIFTS[0] | a2 << _SHIFTS[1] | a3 << 1 | (1 if sign < 0 else 0)


def _unpack(key: int) -> tuple:
    """(sign, exps) of a packed key."""
    return (-1 if key & 1 else 1,
            (key >> _SHIFTS[0] & _LIMIT, key >> _SHIFTS[1] & _LIMIT, key >> 1 & _LIMIT))


def _unpacked(column: tuple) -> tuple:
    """A column over packed keys as the column over (sign, exps) keys."""
    den, entries = column
    return den, {_unpack(key): value for key, value in entries.items()}


def spinor_keys(degree: int) -> list[int]:
    """The packed keys of the monomial spinors of one degree, in the order
    of `spinor_basis_labels`: the keys to pass to `image_columns` and
    `first_failures` for spinor inputs."""
    return [_pack(sign, exps) for exps, sign in spinor_basis_labels(degree)]


def _top(keys) -> int:
    """The largest exponent of the packed keys among keys, 0 if none: every
    int key is a packed key."""
    top = 0
    for key in keys:
        if type(key) is int:
            top = max(top, key >> _SHIFTS[0] & _LIMIT, key >> _SHIFTS[1] & _LIMIT,
                      key >> 1 & _LIMIT)
    return top


def _check_fits(roots: list, keys) -> None:
    """ValueError unless every exponent that the roots can reach from keys
    fits its field: the largest exponent of the keys plus the largest rise."""
    rise = max((root.rise for root in roots), default=0)
    top = _top(keys) if rise else 0
    if top + rise > _LIMIT:
        raise ValueError(
            f"an operator raising exponents by up to {rise} would carry an exponent of "
            f"{top} past its {_FIELD}-bit field"
        )


# ---------------------------------------------------------------------------
# Integer kernels of the primitives.

_MINUS = (-1, 0)
_PLUS_I = (0, 1)
_MINUS_I = (0, -1)


def _kernel(tag: tuple):
    """(den, rise, image) for a primitive tag, where image(key) is the
    integer entry dict {key': (re, im)} of the image of the basis vector of
    key: the sum of (re + i im) / den times the basis vector of key'.  The
    spinor kernels take packed keys; "scalar" and "matrix" act on any
    hashable keys.  rise bounds how far the primitive can raise an exponent:
    a "multiply" by its degree, a "matrix", whose images are its rows, by
    the largest exponent of its packed rows."""
    name = tag[0]
    if name == "scalar":
        value = tag[1]
        den = lcm_of_denominators((value.re, value.im))
        entry = (scaled(value.re, den), scaled(value.im, den))
        if entry == (0, 0):
            return 1, 0, lambda key: _EMPTY
        return den, 0, lambda key: {key: entry}
    if name == "matrix":
        columns: dict = {}
        for (column, row), re, im in tag[2]:
            columns.setdefault(column, {})[row] = (re, im)
        rise = _top(row for (_, row), _, _ in tag[2])
        return tag[1], rise, lambda key: columns.get(key, _EMPTY)
    if name == "pauli":
        index = tag[1]
        if index == 1:
            return 1, 0, lambda key: {key ^ 1: _UNIT}
        if index == 2:  # chi+ -> i chi-, chi- -> -i chi+
            return 1, 0, lambda key: {key ^ 1: _MINUS_I if key & 1 else _PLUS_I}
        return 1, 0, lambda key: {key: _MINUS if key & 1 else _UNIT}
    if name == "reflect":
        parity = 1 << _SHIFTS[tag[1] - 1]  # the low bit of the exponent
        return 1, 0, lambda key: {key: _MINUS if key & parity else _UNIT}
    if name == "euler":
        s1, s2 = _SHIFTS[:2]

        def euler_image(key):
            d = (key >> s1 & _LIMIT) + (key >> s2 & _LIMIT) + (key >> 1 & _LIMIT)
            return {key: (d, 0)} if d else _EMPTY

        return 1, 0, euler_image
    if name == "dunkl":
        # T(x^a) = a x^(a-1) for even a, (a + 2 mu) x^(a-1) for odd a.
        shift, mu = _SHIFTS[tag[1] - 1], tag[2]
        one = 1 << shift
        p, q = mu.numerator, mu.denominator

        def dunkl_image(key):
            a = key >> shift & _LIMIT
            factor = a * q if a % 2 == 0 else a * q + 2 * p
            return {key - one: (factor, 0)} if factor else _EMPTY

        return q, 0, dunkl_image
    if name == "laplace_explicit":
        mus = tag[1:]
        den = lcm_of_denominators(mus)
        fields = [(shift, 2 << shift, scaled(mu, den)) for shift, mu in zip(_SHIFTS, mus)]

        def laplace_image(key):
            out = {}
            for shift, two, num in fields:
                a = key >> shift & _LIMIT
                if a < 2:
                    continue
                factor = a * (a - 1) * den + num * 2 * (a - a % 2)
                if factor:
                    out[key - two] = (factor, 0)
            return out

        return den, 0, laplace_image
    if name == "multiply":
        den, terms = tag[1], tag[2]
        offsets = tuple((_pack(1, e), re, im) for e, re, im in terms)
        rise = max((sum(e) for e, _, _ in terms), default=0)
        return den, rise, lambda key: {key + offset: (re, im) for offset, re, im in offsets}
    raise ValueError(f"unknown primitive {name!r}")


# ---------------------------------------------------------------------------
# Merged expression graphs and their evaluation.

class _Node:
    """A node of the merged graph, with the kind and payload of its LinOp
    and merged `args`.  `_compile` rewrites the sums, differences, negations
    and scalings that it does not absorb into "linear" nodes whose `data`
    lists (cr, ci, child) terms, child None standing for the identity; a
    primitive keeps its kernel's image function in `data`.  `den` and
    `rise` are fixed at compile time: the node maps integer entries e over
    any denominator d to integer entries over d * den, with no reduction
    (see `_compile`), and raises no exponent by more than `rise`.  `memo`
    caches the integer image entries of each basis vector at shared nodes
    and is None elsewhere."""

    __slots__ = ("kind", "args", "payload", "den", "rise", "data", "parents", "memo")

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
    parent of its node, and every shared node gets an empty `memo`.  A
    linear node whose one parent is linear is absorbed into that parent's
    expansion: it is never evaluated, so it is neither expanded nor sized.

    Denominators and rises are fixed in one pass, children first (the order
    in which `_merge` creates them): a primitive keeps its kernel's, a
    composition takes the product of its two children's denominators and
    the sum of their rises, and a linear node takes the largest rise of its
    children and, as its denominator, the lcm of its coefficients'
    denominators times the lcm L of its children's, each coefficient scaled
    by L / den(child)."""
    merged: dict = {}
    by_id: dict = {}
    out = [_merge(op, merged, by_id) for op in roots]
    for node in out:
        node.parents += 1
    absorbed = {
        arg for node in merged.values() if node.kind in _LINEAR
        for arg in node.args if arg.kind in _LINEAR and arg.parents == 1
    }
    nodes = [node for node in merged.values() if node not in absorbed]
    expansions = {}
    for node in nodes:
        if node.kind in _LINEAR:
            terms: dict = {}
            _linear_terms(node, _ONE, terms)
            expansions[node] = [(child, c) for child, c in terms.items() if c]
    for node in nodes:
        if node.kind == "primitive":
            node.den, node.rise, node.data = _kernel(node.payload)
        elif node.kind == "compose":
            outer, inner = node.args
            node.den, node.rise = outer.den * inner.den, outer.rise + inner.rise
        else:
            terms = expansions[node]
            dens = [1 if child is None else child.den for child, _ in terms]
            common = math.lcm(*dens)
            den = lcm_of_denominators(part for _, c in terms for part in (c.re, c.im))
            node.kind, node.args, node.den = "linear", (), den * common
            node.rise = max((child.rise for child, _ in terms if child is not None), default=0)
            node.data = [
                (scaled(c.re, den) * (common // d), scaled(c.im, den) * (common // d), child)
                for (child, c), d in zip(terms, dens)
            ]
        if node.parents > 1 and node.kind != "primitive":
            node.memo = {}
    return out


def _evaluate(node: _Node, columns: list[dict], out: list[dict] | None = None,
              cr: int = 1, ci: int = 0, memoized: bool = True) -> list[dict]:
    """Add (cr + i ci) times the integer entries of the image under node of
    each of a batch of columns to the matching accumulator of out (a fresh
    list of empty dicts when out is None), and return out: the image of
    entries / d is the result / (d * node.den).

    Evaluation pushes: each node adds its scaled image straight into its
    caller's accumulators.  A linear node passes each child its own
    accumulators and the product of the two coefficients, a primitive or a
    memoized node applies and accumulates in one loop, and only the inner
    image of a composition is materialized (`_images`), as the columns of
    its outer node.  The graph runs node by node over the whole batch.  A
    shared node first evaluates itself, with memoized False, on one batch
    of unit columns for the keys of the batch that its memo lacks."""
    if out is None:
        out = [{} for _ in columns]
    memo = node.memo
    if memo is not None and memoized:
        _fill(node, columns)
        _accumulate(memo.__getitem__, columns, cr, ci, out)
        return out
    kind = node.kind
    if kind == "linear":
        for tr, ti, child in node.data:
            xr, xi = cr * tr - ci * ti, cr * ti + ci * tr
            if child is not None:
                _evaluate(child, columns, out, xr, xi)
                continue
            for column, acc in zip(columns, out):
                get = acc.get
                for key, (re, im) in column.items():
                    x = xr * re - xi * im
                    y = xr * im + xi * re
                    previous = get(key)
                    acc[key] = (x, y) if previous is None else (previous[0] + x, previous[1] + y)
    elif kind == "compose":
        inner = _images(node.args[1], columns)
        if any(inner):
            _evaluate(node.args[0], inner, out, cr, ci)
    elif kind == "primitive":
        _accumulate(node.data, columns, cr, ci, out)
    else:
        raise ValueError(f"unknown operator node {kind!r}")
    return out


def _fill(node: _Node, columns: list[dict]) -> None:
    """Memoize the image under the shared node of each key of the columns
    that its memo lacks, from one batch of unit columns."""
    memo = node.memo
    # An entry whose terms cancelled is an explicit zero and is evaluated
    # like any other: too rare to test for (20 of 187,050 memo entries in a
    # default sweep, and skipping them measured no faster).
    missing = [key for key in dict.fromkeys(chain.from_iterable(columns)) if key not in memo]
    if missing:
        memo.update(zip(missing, _evaluate(node, [{key: _UNIT} for key in missing],
                                           memoized=False)))


def _images(node: _Node, columns: list[dict]) -> list[dict]:
    """The integer entries of the image under node of each column, as the
    columns of an outer node: a primitive's or a memo's image of a unit
    column is the kernel's dict or the memo entry itself, which no caller
    mutates."""
    if node.kind == "primitive":
        return _apply(node.data, columns)
    if node.memo is not None:
        _fill(node, columns)
        return _apply(node.memo.__getitem__, columns)
    return _evaluate(node, columns)


def _apply(image, columns: list[dict]) -> list[dict]:
    """The integer entries of the sum of value * image(key) over the entries
    of each column; the image of a unit column is image(key) itself."""
    out = []
    for column in columns:
        if len(column) == 1:
            ((key, value),) = column.items()
            if value == _UNIT:
                out.append(image(key))
                continue
        acc: dict = {}
        _accumulate(image, [column], 1, 0, [acc])
        out.append(acc)
    return out


def _accumulate(image, columns: list[dict], cr: int, ci: int, out: list[dict]) -> None:
    """Add (cr + i ci) times the sum of value * image(key) over the entries
    of each column to the matching accumulator of out."""
    for column, acc in zip(columns, out):
        get = acc.get
        for key, (re, im) in column.items():
            ar = cr * re - ci * im
            ai = cr * im + ci * re
            for key2, (xr, xi) in image(key).items():
                x = ar * xr - ai * xi
                y = ar * xi + ai * xr
                previous = get(key2)
                acc[key2] = (x, y) if previous is None else (previous[0] + x, previous[1] + y)


def image_columns(ops: list[LinOp], keys: list) -> list[list[tuple]]:
    """The image column of each op on the basis vector of each key, from
    one merged graph evaluated on one batch of unit columns, whose shared
    nodes memoize their images across ops and keys: result[i][j] is ops[i]
    applied to keys[j], reduced once.  Spinor keys are packed (see
    `spinor_keys`), and so are the rows of the spinor columns returned."""
    roots = _compile(ops)
    _check_fits(roots, keys)
    units = [{key: _UNIT} for key in keys]
    return [[reduced(root.den, image) for image in _evaluate(root, units)] for root in roots]


# ---------------------------------------------------------------------------
# Identity verification.

@dataclass
class IdentityReport:
    """Outcome of one check: it passes exactly when it has no
    counterexample.  An identity checked on a basis also records its degree
    range and basis size, the number of basis vectors evaluated up to and
    including a counterexample; other checks leave both None, and their
    JSON has neither field."""

    name: str
    counterexample: dict | None = None
    degrees: tuple[int, int] | None = None
    basis_size: int | None = None

    @property
    def status(self) -> str:
        return "pass" if self.counterexample is None else "fail"

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.degrees is not None:
            out["degrees"] = list(self.degrees)
            out["basis_size"] = self.basis_size
        out["status"] = self.status
        out["counterexample"] = self.counterexample
        return out


def first_failures(pairs: list[tuple[LinOp, LinOp]], slices: list[list]) -> list[tuple | None]:
    """For each (lhs, rhs) pair, the first position i at which the sides
    differ on the basis vector of keys[i], as (i, lhs column, rhs column),
    or None when they agree on every key; keys is the concatenation of the
    slices.

    Each pair is checked as one difference root lhs - rhs, all of them on
    one merged graph whose shared nodes memoize their images for the whole
    call, so an operator that lowers the degree reuses the images of earlier
    slices.  The slices are evaluated in order, each as one batch of unit
    columns through the roots of the pairs that have not failed yet.  A pair
    fails at the first key where the difference has a nonzero entry; only
    then are its two sides evaluated and reduced, for the counterexample.
    """
    roots = _compile([lhs - rhs for lhs, rhs in pairs])
    failures: list[tuple | None] = [None] * len(roots)
    position = 0
    for keys in slices:
        _check_fits(roots, keys)
        units = [{key: _UNIT} for key in keys]
        for index, root in enumerate(roots):
            if failures[index] is not None:
                continue
            for offset, image in enumerate(_evaluate(root, units)):
                if any(map(any, image.values())):
                    (left,), (right,) = image_columns(list(pairs[index]), [keys[offset]])
                    failures[index] = (position + offset, left, right)
                    break
        position += len(keys)
    return failures


def verify_identities(
    items: list[tuple[str, LinOp, LinOp]],
    max_degree: int,
) -> list[IdentityReport]:
    """Check each (name, lhs, rhs) item with `first_failures` on the
    monomial spinors of degrees 0..max_degree, one slice per degree, each
    in the order of `spinor_basis_labels`.

    Passing certifies an identity on the full space of those degrees, by
    linearity.  A failing identity records its first counterexample.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    slices = [spinor_keys(degree) for degree in range(max_degree + 1)]
    keys = list(chain.from_iterable(slices))
    failures = first_failures([(lhs, rhs) for _, lhs, rhs in items], slices)
    reports = []
    for (name, _, _), failure in zip(items, failures):
        if failure is None:
            reports.append(IdentityReport(name, None, (0, max_degree), len(keys)))
            continue
        position, left, right = failure
        sign, exps = _unpack(keys[position])
        reports.append(IdentityReport(name, {
            "degree": sum(exps),
            "exponents": list(exps),
            "spinor": "+" if sign == 1 else "-",
            "lhs": SpinorPoly.from_column(_unpacked(left)).to_json_dict(),
            "rhs": SpinorPoly.from_column(_unpacked(right)).to_json_dict(),
        }, (0, max_degree), position + 1))
    return reports


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
