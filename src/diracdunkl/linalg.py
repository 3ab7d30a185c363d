"""Exact ranks and linear solves over the Gaussian rationals.

Entries must be Gaussian rationals: `GRational`, `Fraction` or `int` values.
Solutions come back as `GRational` values.

The columns are first split into the connected components of the nonzero
pattern (two columns are connected when a row has a nonzero entry in both),
and each component is eliminated on its own rows.  Each row is scaled once by
the lcm of its denominators into a primitive Gaussian-integer row: its real
and imaginary parts have gcd 1.  Elimination is Gauss-Jordan with the row
update p * row - f * pivot_row, where p is the pivot and f the row's entry in
the pivot column, followed by division by the content (the gcd of all
parts) of the new row.  No fraction is formed until a solution is read off.
Pivoting picks the first nonzero entry in column order, which is always
valid over an exact field and keeps the elimination deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GRational, as_grational
from .poly import lcm_of_denominators, scaled


def _components(rows: list[list], ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the nonzero pattern of the first ncols
    columns, as (columns, rows) index lists in ascending order, ordered by
    first column.  A column with no nonzero entry is a component with no
    rows; a row with no nonzero entry there belongs to none."""
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    firsts = []
    for row in rows:
        first = None
        for c in range(ncols):
            if row[c]:
                if first is None:
                    first = find(c)
                else:
                    root = find(c)
                    if root != first:
                        parent[max(root, first)] = first = min(root, first)
        firsts.append(first)
    columns: dict[int, list[int]] = {}
    for c in range(ncols):
        columns.setdefault(find(c), []).append(c)
    members: dict[int, list[int]] = {root: [] for root in columns}
    for i, first in enumerate(firsts):
        if first is not None:
            members[find(first)].append(i)
    return [(cols, members[root]) for root, cols in columns.items()]


def _integer_row(values: list) -> tuple[list[int], list[int]]:
    """The primitive Gaussian-integer multiple of a row, as its lists of
    real and imaginary parts."""
    values = [as_grational(v) for v in values]
    den = lcm_of_denominators(part for v in values for part in (v.re, v.im))
    return _primitive([scaled(v.re, den) for v in values], [scaled(v.im, den) for v in values])


def _primitive(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    g = math.gcd(*re, *im)
    if g > 1:
        re = [x // g for x in re]
        im = [x // g for x in im]
    return re, im


def _reduce(rows: list, width: int, full: bool) -> list[int]:
    """Eliminate, in place, on the first width columns of integer rows;
    returns the pivot columns, pivot j sitting in rows[j].  With full, every
    other row is cleared in a pivot column (Gauss-Jordan); otherwise only
    the rows below the pivot are (echelon form)."""
    pivots: list[int] = []
    n = len(rows)
    r = 0
    for c in range(width):
        if r == n:
            break
        for i in range(r, n):
            re, im = rows[i]
            if re[c] or im[c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pre, pim = rows[r]
        pr, pi = pre[c], pim[c]
        for i in range(0 if full else r + 1, n):
            if i == r:
                continue
            re, im = rows[i]
            fr, fi = re[c], im[c]
            if not (fr or fi):
                continue
            if pi or fi:
                rows[i] = _primitive(
                    [pr * a - pi * b - fr * x + fi * y
                     for a, b, x, y in zip(re, im, pre, pim)],
                    [pr * b + pi * a - fr * y - fi * x
                     for a, b, x, y in zip(re, im, pre, pim)],
                )
            else:
                rows[i] = _primitive(
                    [pr * a - fr * x for a, x in zip(re, pre)],
                    [pr * b - fr * y for b, y in zip(im, pim)],
                )
        pivots.append(c)
        r += 1
    return pivots


def rank(rows: list[list]) -> int:
    total = 0
    for columns, members in _components(rows, len(rows[0]) if rows else 0):
        block = [_integer_row([rows[i][c] for c in columns]) for i in members]
        total += len(_reduce(block, len(columns), full=False))
    return total


def solve(matrix: list[list], rhs_columns: list[list]) -> list[list]:
    """Solve matrix @ X = rhs for each right-hand-side column.

    The system may be overdetermined but must be consistent with a unique
    solution (full column rank).  Returns the solution columns.  A singular
    matrix is reported before an inconsistent right-hand side.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for col in rhs_columns:
        if len(col) != nrows:
            raise ValueError("right-hand side has wrong length")
    solutions = [[None] * ncols for _ in rhs_columns]
    reduced = []
    covered = set()
    for columns, members in _components(matrix, ncols):
        block = [
            _integer_row([matrix[i][c] for c in columns] + [col[i] for col in rhs_columns])
            for i in members
        ]
        width = len(columns)
        if len(_reduce(block, width, full=True)) < width:
            raise ValueError("singular system: matrix does not have full column rank")
        reduced.append((columns, block))
        covered.update(members)
    for columns, block in reduced:
        width = len(columns)
        for re, im in block[width:]:
            if any(re[width:]) or any(im[width:]):
                raise ValueError("inconsistent system")
    if any(col[i] for i in range(nrows) if i not in covered for col in rhs_columns):
        raise ValueError("inconsistent system")
    for columns, block in reduced:
        width = len(columns)
        for j, c in enumerate(columns):
            re, im = block[j]
            pr, pi = re[j], im[j]
            norm = pr * pr + pi * pi
            for solution, br, bi in zip(solutions, re[width:], im[width:]):
                solution[c] = GRational(
                    Fraction(br * pr + bi * pi, norm), Fraction(bi * pr - br * pi, norm)
                )
    return solutions
