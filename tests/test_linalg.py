"""Differential tests of `diracdunkl.linalg` against the Fraction Gauss-Jordan
elimination of `reference`: equal ranks, equal solutions and the same
ValueError text, over dense, sparse, real, block-diagonal, rank-deficient,
tall and empty systems.  Each dense system reaches `linalg` as the reduced
keyed columns of `reference.keyed_columns`."""

from fractions import Fraction

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from diracdunkl import linalg
from diracdunkl.exact import GRational

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
grationals = st.builds(GRational, rationals, rationals)
zero = st.just(GRational(0))
# Dense, mostly-zero and real-only entries; real ones as plain Fractions.
ENTRIES = {
    "dense": grationals,
    "sparse": st.one_of(zero, zero, zero, grationals),
    "fraction": st.one_of(st.just(Fraction(0)), rationals),
}
entry_kinds = st.sampled_from(sorted(ENTRIES))


@st.composite
def matrices(draw, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    n, m = draw(rows), draw(cols)
    entries = ENTRIES[draw(entry_kinds)]
    return [[draw(entries) for _ in range(m)] for _ in range(n)]


def _product(a: list[list], b: list[list]) -> list[list]:
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), GRational(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _rank(matrix):
    return linalg.rank(reference.keyed_columns(matrix))


def _solve(matrix, rhs_columns):
    return linalg.solve(
        reference.keyed_columns(matrix),
        [reference.keyed_column(col) for col in rhs_columns],
    )


def _assert_same_solve(matrix, rhs_columns):
    expected = _outcome(reference.solve, matrix, rhs_columns)
    got = _outcome(_solve, matrix, rhs_columns)
    assert got == expected
    if got[0] == "ok":
        assert all(type(v) is GRational for column in got[1] for v in column)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_reference(matrix):
    assert _rank(matrix) == reference.rank(matrix)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_reference(matrix, data):
    nrows = len(matrix)
    entries = ENTRIES[data.draw(entry_kinds)]
    rhs = data.draw(st.lists(st.lists(entries, min_size=nrows, max_size=nrows), max_size=3))
    _assert_same_solve(matrix, rhs)


@st.composite
def shuffled_block_diagonal(draw):
    blocks = draw(st.lists(matrices(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3))
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks)
    out = [[GRational(0)] * ncols for _ in range(nrows)]
    r = c = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[r + i][c:c + len(row)] = row
        r, c = r + len(block), c + len(block[0])
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return [[out[i][j] for j in col_order] for i in row_order]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(shuffled_block_diagonal(), st.data())
def test_shuffled_block_diagonal_matches_reference(matrix, data):
    assert _rank(matrix) == reference.rank(matrix)
    x = data.draw(st.lists(grationals, min_size=len(matrix[0]), max_size=len(matrix[0])))
    consistent = [row[0] for row in _product(matrix, [[v] for v in x])]
    other = data.draw(st.lists(grationals, min_size=len(matrix), max_size=len(matrix)))
    _assert_same_solve(matrix, [consistent])
    _assert_same_solve(matrix, [consistent, other])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_rank_deficient_square_matches_reference(n, data):
    k = data.draw(st.integers(0, n - 1))
    if k:
        left = data.draw(matrices(st.just(n), st.just(k)))
        matrix = _product(left, data.draw(matrices(st.just(k), st.just(n))))
    else:
        matrix = [[GRational(0)] * n for _ in range(n)]
    assert _rank(matrix) == reference.rank(matrix) < n
    rhs = data.draw(st.lists(grationals, min_size=n, max_size=n))
    _assert_same_solve(matrix, [rhs])
    assert _outcome(_solve, matrix, [rhs])[1].startswith("singular")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_tall_systems_match_reference(ncols, extra, data):
    matrix = data.draw(matrices(st.just(ncols + extra), st.just(ncols)))
    x = data.draw(st.lists(grationals, min_size=ncols, max_size=ncols))
    consistent = [row[0] for row in _product(matrix, [[v] for v in x])]
    perturbed = list(consistent)
    index = data.draw(st.integers(0, len(perturbed) - 1))
    perturbed[index] += data.draw(grationals.filter(bool))
    _assert_same_solve(matrix, [consistent])
    _assert_same_solve(matrix, [perturbed])
    _assert_same_solve(matrix, [consistent, perturbed])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(st.integers(1, 5), st.integers(0, 4)), st.data())
def test_zero_row_with_nonzero_rhs_matches_reference(matrix, data):
    ncols = len(matrix[0])
    index = data.draw(st.integers(0, len(matrix)))
    matrix = matrix[:index] + [[GRational(0)] * ncols] + matrix[index:]
    rhs = data.draw(st.lists(grationals, min_size=len(matrix), max_size=len(matrix)))
    rhs[index] = data.draw(grationals.filter(bool))
    _assert_same_solve(matrix, [rhs])
    message = _outcome(_solve, matrix, [rhs])[1]
    assert message.startswith(("singular", "inconsistent"))


@pytest.mark.parametrize("matrix, rhs, expected", [
    ([], [], ("ok", [])),
    ([], [[]], ("ok", [[]])),
    ([[]], [[GRational(1)]], ("error", "inconsistent system")),
    ([[GRational(0)]], [[GRational(0)]],
     ("error", "singular system: matrix does not have full column rank")),
    ([[GRational(0)]], [[GRational(1)]],
     ("error", "singular system: matrix does not have full column rank")),
    ([[GRational(3, 2)]], [[GRational(1, 1)]],
     ("ok", [[GRational(Fraction(5, 13), Fraction(1, 13))]])),
    ([[Fraction(2)]], [[Fraction(1)]], ("ok", [[GRational(Fraction(1, 2))]])),
])
def test_empty_and_one_by_one_systems(matrix, rhs, expected):
    assert _outcome(_solve, matrix, rhs) == expected
    assert _outcome(reference.solve, matrix, rhs) == expected
    assert _rank(matrix) == reference.rank(matrix)


def test_singular_is_reported_before_inconsistent():
    # Column 0 alone is an inconsistent tall block; column 1 is zero, so the
    # matrix is singular too, and singular wins as in the reference.
    one, nil = GRational(1), GRational(0)
    matrix = [[one, nil], [one, nil], [nil, nil]]
    rhs = [one, GRational(2), nil]
    expected = ("error", "singular system: matrix does not have full column rank")
    assert _outcome(_solve, matrix, [rhs]) == expected
    assert _outcome(reference.solve, matrix, [rhs]) == expected
    # Inconsistent only in a later block, after a consistent one.
    matrix = [[one, nil], [nil, one], [nil, one]]
    expected = ("error", "inconsistent system")
    assert _outcome(_solve, matrix, [[one, one, GRational(2)]]) == expected
    assert _outcome(reference.solve, matrix, [[one, one, GRational(2)]]) == expected


SPINOR_A, SPINOR_B, STATE = (1, (1, 0, 0)), (-1, (0, 2, 1)), (3,)

KEYED_CASES = {
    # One row mixes the denominators 2, 3 and 5 of three columns.
    "mixed denominators in one row": (
        [(2, {(0,): (1, 0), (1,): (1, 1)}),
         (3, {(0,): (2, -1)}),
         (5, {(0,): (0, 3), (2,): (4, 0)})],
        [(4, {(0,): (10, -1), (1,): (2, 2), (2,): (4, 0)})],
        ("ok", [[GRational(1), GRational(3), GRational(Fraction(5, 4))]]),
    ),
    # Keys of two shapes: spinor (sign, exps) keys and state keys (k,).
    "keys of two shapes": (
        [(1, {SPINOR_A: (1, 0), STATE: (1, 0)}),
         (2, {SPINOR_B: (0, 1), STATE: (1, 0)})],
        [(2, {SPINOR_A: (2, 0), SPINOR_B: (0, -1), STATE: (1, 0)})],
        ("ok", [[GRational(1), GRational(-1)]]),
    ),
    "rhs key held by no column": (
        [(1, {SPINOR_A: (1, 0)})],
        [(1, {SPINOR_A: (1, 0), STATE: (0, 1)})],
        ("error", "inconsistent system"),
    ),
    # The empty column is singular, which wins over the stray rhs key.
    "empty column": (
        [(1, {SPINOR_A: (1, 0)}), (1, {})],
        [(1, {SPINOR_A: (1, 0), STATE: (0, 1)})],
        ("error", "singular system: matrix does not have full column rank"),
    ),
}


@pytest.mark.parametrize("name", sorted(KEYED_CASES))
def test_keyed_columns(name):
    columns, rhs, expected = KEYED_CASES[name]
    assert _outcome(linalg.solve, columns, rhs) == expected
    if expected[0] == "ok":
        # x solves the system: sum_j x_j columns[j] == rhs, entry by entry.
        (solution,) = expected[1]
        for key in {key for _, entries in columns + rhs for key in entries}:
            lhs = sum((x * _entry(column, key) for x, column in zip(solution, columns)),
                      GRational(0))
            assert lhs == _entry(rhs[0], key), (name, key)


def _entry(column, key):
    den, entries = column
    re, im = entries.get(key, (0, 0))
    return GRational(Fraction(re, den), Fraction(im, den))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(st.integers(1, 6), st.integers(1, 5)), st.data())
def test_insertion_order_does_not_matter(matrix, data):
    x = data.draw(st.lists(grationals, min_size=len(matrix[0]), max_size=len(matrix[0])))
    rhs = [row[0] for row in _product(matrix, [[v] for v in x])]
    columns = reference.keyed_columns(matrix)
    rhs_columns = [reference.keyed_column(rhs)]

    def reversed_order(column):
        den, entries = column
        return den, dict(reversed(list(entries.items())))

    assert linalg.rank(columns) == linalg.rank([reversed_order(c) for c in columns])
    assert _outcome(linalg.solve, columns, rhs_columns) == _outcome(
        linalg.solve,
        [reversed_order(c) for c in columns],
        [reversed_order(c) for c in rhs_columns],
    )
