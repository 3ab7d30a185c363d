"""Exact dense linear algebra over an arbitrary exact field.

Rows are lists; entries must support +, -, *, / and truthiness (zero test).
Used with both Fraction and GRational entries.  Pivoting picks the first
nonzero entry, which is always valid over an exact field and keeps the
elimination deterministic.
"""

from __future__ import annotations


def _eliminate(rows: list[list]) -> tuple[list[list], list[int]]:
    """Forward elimination to reduced row echelon form; returns pivots."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        recip = 1 / rows[r][c]
        pivot = rows[r] = [v * recip for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b if b else a for a, b in zip(rows[i], pivot)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows: list[list]) -> int:
    _, pivots = _eliminate(rows)
    return len(pivots)


def solve(matrix: list[list], rhs_columns: list[list]) -> list[list]:
    """Solve matrix @ X = rhs for each right-hand-side column.

    The system may be overdetermined but must be consistent with a unique
    solution (full column rank).  Returns the solution columns.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for col in rhs_columns:
        if len(col) != nrows:
            raise ValueError("right-hand side has wrong length")
    augmented = [
        list(matrix[i]) + [col[i] for col in rhs_columns] for i in range(nrows)
    ]
    reduced, pivots = _eliminate(augmented)
    main_pivots = [p for p in pivots if p < ncols]
    if len(main_pivots) < ncols:
        raise ValueError("singular system: matrix does not have full column rank")
    if any(p >= ncols for p in pivots):
        raise ValueError("inconsistent system")
    solutions = []
    for j in range(len(rhs_columns)):
        col = [None] * ncols
        for row_index, p in enumerate(main_pivots):
            col[p] = reduced[row_index][ncols + j]
        solutions.append(col)
    return solutions

