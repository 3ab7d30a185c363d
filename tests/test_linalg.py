"""Differential tests of `diracdunkl.linalg` against the Fraction Gauss-Jordan
elimination of `reference`: equal ranks, equal solutions and the same
ValueError text, over dense, sparse, real, block-diagonal, rank-deficient,
tall and empty systems."""

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


def _assert_same_solve(matrix, rhs_columns):
    expected = _outcome(reference.solve, matrix, rhs_columns)
    got = _outcome(linalg.solve, matrix, rhs_columns)
    assert got == expected
    if got[0] == "ok":
        assert all(type(v) is GRational for column in got[1] for v in column)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_reference(matrix):
    assert linalg.rank(matrix) == reference.rank(matrix)


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
    assert linalg.rank(matrix) == reference.rank(matrix)
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
    assert linalg.rank(matrix) == reference.rank(matrix) < n
    rhs = data.draw(st.lists(grationals, min_size=n, max_size=n))
    _assert_same_solve(matrix, [rhs])
    assert _outcome(linalg.solve, matrix, [rhs])[1].startswith("singular")


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
    message = _outcome(linalg.solve, matrix, [rhs])[1]
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
    ([[GRational(1)]], [[GRational(1), GRational(2)]], ("error", "right-hand side has wrong length")),
])
def test_empty_and_one_by_one_systems(matrix, rhs, expected):
    assert _outcome(linalg.solve, matrix, rhs) == expected
    assert _outcome(reference.solve, matrix, rhs) == expected
    assert linalg.rank(matrix) == reference.rank(matrix)


def test_singular_is_reported_before_inconsistent():
    # Column 0 alone is an inconsistent tall block; column 1 is zero, so the
    # matrix is singular too, and singular wins as in the reference.
    one, nil = GRational(1), GRational(0)
    matrix = [[one, nil], [one, nil], [nil, nil]]
    rhs = [one, GRational(2), nil]
    expected = ("error", "singular system: matrix does not have full column rank")
    assert _outcome(linalg.solve, matrix, [rhs]) == expected
    assert _outcome(reference.solve, matrix, [rhs]) == expected
    # Inconsistent only in a later block, after a consistent one.
    matrix = [[one, nil], [nil, one], [nil, one]]
    expected = ("error", "inconsistent system")
    assert _outcome(linalg.solve, matrix, [[one, one, GRational(2)]]) == expected
    assert _outcome(reference.solve, matrix, [[one, one, GRational(2)]]) == expected
