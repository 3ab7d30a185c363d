"""The merged operator graphs against the plain tree evaluator of
`reference.evaluate`.

A merged graph fixes one denominator per node and passes unreduced integer
entries between nodes; only a root's result is reduced, and the checker
compares the two sides of a pair through one difference root.  Each test
here gives `first_failures`, `image_columns` and `LinOp.__call__` the same
operators as the reference, which reduces every node's image, and demands
equal results: the same failure positions and the same reduced columns.
The graphs run on packed spinor keys and the reference on (sign, exps)
keys, with kernels of its own, so columns are compared unpacked.  The large
fixed denominators come from `EDGE_MUS` (997/3 and 1000).
"""

import random
from fractions import Fraction

import pytest
import reference
from conftest import EDGE_MUS, random_spinor

from diracdunkl import operators, suites
from diracdunkl.exact import GRational, I, Params
from diracdunkl.operators import (
    LinOp,
    anticommutator,
    bi_generator,
    casimir,
    central_element,
    commutator,
    coordinate_op,
    dirac,
    dunkl_op,
    first_failures,
    identity,
    image_columns,
    laplace_s2,
    matrix_op,
    reflect_op,
    scalar_op,
    spinor_keys,
    symmetry,
    x_underline,
    zero_op,
)
from diracdunkl.poly import SpinorPoly, spinor_basis_labels

SLICES = [spinor_keys(degree) for degree in range(4)]
KEYS = [key for part in SLICES for key in part]
LABELS = [(sign, exps) for degree in range(4) for exps, sign in spinor_basis_labels(degree)]


def _image_columns(ops, keys):
    """`image_columns` with its columns over (sign, exps) keys."""
    return [[operators._unpacked(column) for column in row] for row in image_columns(ops, keys)]


def _first_failures(pairs, slices):
    """`first_failures` with the columns of its failures over (sign, exps)
    keys."""
    unpacked = operators._unpacked
    return [failure if failure is None else (failure[0], unpacked(failure[1]), unpacked(failure[2]))
            for failure in first_failures(pairs, slices)]


def test_spinor_keys_follow_the_basis_labels():
    assert [operators._unpack(key) for key in KEYS] == LABELS
    assert len(set(KEYS)) == len(KEYS)


def _suite_items(params, mutation=None) -> list:
    """The (name, lhs, rhs) items that the osp12 and symmetry sections
    check, as passed to `verify_identities`."""
    captured = []
    original = suites.verify_identities

    def capture(items, degree):
        captured.extend(items)
        return original(items, degree)

    suites.verify_identities = capture
    try:
        suites.suite_osp12(params, 1, mutation)
        suites.suite_symmetry(params, 1, mutation)
    finally:
        suites.verify_identities = original
    return captured


def _planted(params) -> LinOp:
    """An operator that vanishes below degree 3, with a 997 in its
    denominator: added to one side, it makes that side fail at degree 3."""
    x1, t1 = coordinate_op(1), dunkl_op(1, params)
    return Fraction(1, 997) * (x1**3 * t1**3)


@pytest.mark.parametrize("params", EDGE_MUS, ids=str)
def test_suite_identities_match_tree_evaluation(params):
    items = _suite_items(params)
    assert len(items) == 80
    sides = [op for _, lhs, rhs in items for op in (lhs, rhs)]
    expected = reference.image_columns(sides, LABELS)
    assert _image_columns(sides, KEYS) == expected
    # The reference's checker would find no failure: each pair's sides
    # have equal columns on every key.
    assert expected[::2] == expected[1::2]
    assert first_failures(list(zip(sides[::2], sides[1::2])), SLICES) == [None] * 80


@pytest.mark.parametrize("params", EDGE_MUS[2:4], ids=str)
def test_planted_failures_match_tree_evaluation(params):
    # Every suite identity, its right side perturbed by an operator that
    # vanishes below degree 3; and the two mutated sections, whose planted
    # defects fail three identities at degree 0.
    pairs = [(lhs, rhs + _planted(params)) for _, lhs, rhs in _suite_items(params)]
    pairs += [
        (lhs, rhs) for mutation in ("gamma3+1", "quad+1")
        for _, lhs, rhs in _suite_items(params, mutation)
    ]
    got = _first_failures(pairs, SLICES)
    assert got == reference.first_failures(pairs, LABELS)
    first_cubic = next(i for i, (_, exps) in enumerate(LABELS) if exps[0] == 3)
    assert [f[0] for f in got[:80]] == [first_cubic] * 80
    failing = [f for f in got[80:] if f is not None]
    assert len(failing) == 3 and all(f[0] == 0 and f[1] != f[2] for f in failing)


def test_sides_with_different_denominators():
    params = Params(Fraction(997, 3), 0, Fraction(2, 5))
    t1, x1 = dunkl_op(1, params), coordinate_op(1)
    big = scalar_op(Fraction(1, 1000))
    pairs = [
        # [T1, x1] = 1 + 2 mu1 R1 over the dens 3 and 3 * 1.
        (commutator(t1, x1), identity() + (2 * params.mu1) * reflect_op(1)),
        # Sides over 3 * 1000 and 1000 * 3 that agree.
        (big * t1 * x1, t1 * big * x1),
        # Sides over 9 and 1000 that differ on every key.
        (t1 * t1 * x1 * x1, big * identity()),
        # A den-1 side against a den-997 side that differ everywhere.
        (x_underline(), Fraction(1, 997) * x_underline()),
        (scalar_op(Fraction(1, 3)) * 3 * t1, t1),
    ]
    got = _first_failures(pairs, SLICES)
    assert got == reference.first_failures(pairs, LABELS)
    assert [f if f is None else f[0] for f in got] == [None, None, 0, 0, None]
    assert got[2][1] == (3, {LABELS[0]: (3994, 0)}) and got[2][2] == (1000, {LABELS[0]: (1, 0)})
    columns = _image_columns([op for pair in pairs for op in pair], KEYS)
    assert columns == reference.image_columns([op for pair in pairs for op in pair], LABELS)


def test_cancelling_commutator_leaves_explicit_zeros():
    # x1 x2 and x2 x1 give the same integer entry, so the unreduced image of
    # the commutator at its root keeps an explicit zero, which a check must
    # read as zero and a reduction must drop.
    params = EDGE_MUS[3]
    bracket = commutator(coordinate_op(1), coordinate_op(2))
    (root,) = operators._compile([bracket])
    (unreduced,) = operators._evaluate(root, [{KEYS[0]: (1, 0)}])
    assert unreduced and not any(map(any, unreduced.values()))
    cancelling = [
        bracket,
        commutator(reflect_op(1), reflect_op(2)),
        anticommutator(bi_generator(params, 1), bi_generator(params, 2))
        - anticommutator(bi_generator(params, 2), bi_generator(params, 1)),
    ]
    pairs = [(op, zero_op()) for op in cancelling]
    assert first_failures(pairs, SLICES) == reference.first_failures(pairs, LABELS) == [None] * 3
    assert image_columns(cancelling, KEYS) == [[(1, {})] * len(KEYS)] * 3
    f = random_spinor(random.Random(5), 3)
    assert all(op(f) == SpinorPoly.zero() for op in cancelling)


MATRIX_KEYS = [(k,) for k in range(4)] + [(0, 1), (2, 3, 5)]


def _random_matrix(rng) -> dict:
    dens = (1, 3, 997, 1000)
    return {
        (row, column): GRational(
            Fraction(rng.randint(-9, 9), rng.choice(dens)),
            Fraction(rng.randint(-9, 9), rng.choice(dens)),
        )
        for row in MATRIX_KEYS for column in MATRIX_KEYS if rng.random() < 0.4
    }


def test_matrix_keys_match_tree_evaluation():
    rng = random.Random(67)
    for _ in range(5):
        a, b, c = (matrix_op(_random_matrix(rng)) for _ in range(3))
        ops = [a, a * b - b * a, (a + c) * b * a, Fraction(1, 997) * a * a + 1000 * c, b * b]
        assert image_columns(ops, MATRIX_KEYS) == reference.image_columns(ops, MATRIX_KEYS)
        pairs = [
            (a * b, b * a),
            (commutator(a, b), a * b - b * a),
            (a * (b + c), a * b + a * c),
            ((a + b) * c, a * c + b * c + Fraction(1, 997) * a * a * a),
        ]
        got = first_failures(pairs, [MATRIX_KEYS])
        assert got == reference.first_failures(pairs, MATRIX_KEYS)
        assert got[1] is None and got[2] is None


@pytest.mark.parametrize("params", EDGE_MUS, ids=str)
def test_dense_inputs_match_tree_evaluation(params):
    rng = random.Random(71)
    ops = [
        casimir(params),
        central_element(params),
        symmetry(params, 2) * bi_generator(params, 3),
        laplace_s2(params) - I * dirac(params) * x_underline(),
        Fraction(1, 997) * commutator(dunkl_op(1, params), coordinate_op(1)),
    ]
    inputs = [random_spinor(rng, 3), SpinorPoly.zero(), SpinorPoly.monomial((1, 2, 0), -1, I)]
    inputs.append(inputs[0].scale(GRational(Fraction(1, 1000), Fraction(-3, 997))))
    for op in ops:
        for f in inputs + inputs[::-1]:
            assert op(f).column == reference.evaluate(op, f.column)


def test_reduction_only_at_roots(monkeypatch):
    # A passing check reduces nothing; image_columns reduces each result
    # once; a failing pair reduces its two sides, once each.
    calls = []
    reduced = operators.reduced

    def counted(den, entries):
        calls.append(den)
        return reduced(den, entries)

    monkeypatch.setattr(operators, "reduced", counted)
    params = EDGE_MUS[3]
    pairs = [(lhs, rhs) for _, lhs, rhs in _suite_items(params)]
    assert first_failures(pairs, SLICES) == [None] * len(pairs)
    assert calls == []
    ops = [casimir(params), dirac(params), identity(), scalar_op(Fraction(1, 997))]
    image_columns(ops, KEYS)
    assert len(calls) == len(ops) * len(KEYS)
    calls.clear()
    image_columns([matrix_op({((0,), (1,)): 2})], [(0,), (1,), (2,)])
    assert len(calls) == 3
    calls.clear()
    (failure,) = first_failures([(x_underline(), Fraction(1, 997) * x_underline())], SLICES)
    assert failure[0] == 0 and len(calls) == 2


def test_failed_pair_is_not_evaluated_on_later_slices(monkeypatch):
    # A primitive whose kernel raises on any key past degree 0: its pair
    # fails on the degree-0 slice and is never run on the next ones, while
    # the other pair is checked on every slice.
    kernel = operators._kernel

    def with_degree_zero_only(tag):
        if tag != ("degree zero only",):
            return kernel(tag)

        def image(key):
            if key not in SLICES[0]:
                raise AssertionError("evaluated past the degree-0 slice")
            return {key: (1, 0)}

        return 1, 0, image

    monkeypatch.setattr(operators, "_kernel", with_degree_zero_only)
    pairs = [(operators.primitive("degree zero only"), zero_op()), (x_underline(), x_underline())]
    ((position, left, right), passed) = _first_failures(pairs, SLICES)
    assert passed is None
    assert (position, left, right) == (0, (1, {LABELS[0]: (1, 0)}), (1, {}))


def _nested_ops(params, rng, levels: int = 3) -> list:
    """Operators in which linear nodes nest through compositions at the
    given number of levels, every coefficient non-real: each level's three
    operators are sums of compositions of the level below, with one operator
    of that level in several terms (a shared node), a fresh sum as an outer
    factor (an unshared linear node that is pushed into) and a copy of an
    earlier level's sum built apart (merged, and so shared)."""
    def coef() -> GRational:
        return GRational(Fraction(rng.randint(-5, 5), rng.choice((1, 3, 997))),
                         Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 1000))))

    def base():
        return [dunkl_op(1, params), dunkl_op(3, params), coordinate_op(2),
                operators.pauli_op(2), reflect_op(1), scalar_op(coef())]

    leaves = base()
    layer = [coef() * a + coef() * b - coef() * c for a, b, c in (rng.sample(leaves, 3) for _ in range(3))]
    first = layer[0]
    for _ in range(levels - 1):
        shared, other, last = layer
        rebuilt = coef() * base()[0] + coef() * base()[2]
        fresh = coef() * other + coef() * rng.choice(leaves)
        layer = [
            coef() * (shared * other) - coef() * (other * shared) + coef() * identity(),
            coef() * (fresh * shared) + coef() * (last * rebuilt),
            coef() * (shared * last) + coef() * (first * rebuilt) - coef() * shared,
        ]
    return layer


def _graph(roots) -> list:
    """The nodes of a compiled graph reachable from its roots."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend([child for *_, child in node.data] if node.kind == "linear" else node.args)
    return list(seen.values())


def _linear_levels(node) -> int:
    """The most linear nodes on one path down from node."""
    if node is None:
        return 0
    below = [child for *_, child in node.data] if node.kind == "linear" else node.args
    return (node.kind == "linear") + max(map(_linear_levels, below), default=0)


@pytest.mark.parametrize("params", EDGE_MUS[2:5], ids=str)
def test_nested_push_evaluation_matches_tree_evaluation(params):
    rng = random.Random(73)
    ops = _nested_ops(params, rng)
    roots = operators._compile(ops)
    nodes = _graph(roots)
    linear = [node for node in nodes if node.kind == "linear"]
    assert min(map(_linear_levels, roots)) >= 3
    assert all(any(ci for _, ci, _ in node.data) for node in linear)
    assert any(node.memo is not None for node in linear)
    assert any(node.memo is None and node not in roots for node in linear)
    assert _image_columns(ops, KEYS) == reference.image_columns(ops, LABELS)
    inputs = [random_spinor(rng, 3), SpinorPoly.monomial((1, 2, 0), -1, I), SpinorPoly.zero()]
    inputs.append(inputs[0].scale(GRational(Fraction(1, 1000), Fraction(-3, 997))))
    for op in ops:
        for f in inputs + inputs[::-1]:
            assert op(f).column == reference.evaluate(op, f.column)
    pairs = [(ops[0], ops[0]), (ops[1], ops[1] + I * ops[2] - I * ops[2]),
             (ops[2], ops[2] + Fraction(1, 997) * _planted(params)), (ops[0], ops[1])]
    got = _first_failures(pairs, SLICES)
    assert got == reference.first_failures(pairs, LABELS)
    assert got[0] is None and got[1] is None and got[2] is not None


def test_compiling_a_nested_sum_expands_each_term_once(monkeypatch):
    # A left-nested sum of n terms is n - 1 "add" nodes, each of which has
    # one linear parent but the outermost: only that one is expanded, each
    # of the n - 1 sums expanding its two operands once.
    calls = []
    expand = operators._expand

    def counted(node, coef, terms):
        calls.append(node)
        expand(node, coef, terms)

    monkeypatch.setattr(operators, "_expand", counted)
    counts = []
    for n in (8, 16, 32):
        terms = [operators.multiply_op((1, {(k, 0, 1): (1, 0)})) for k in range(n)]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        calls.clear()
        (root,) = operators._compile([total])
        counts.append(len(calls))
        assert len(root.data) == n
    assert counts == [2 * (n - 1) for n in (8, 16, 32)]
