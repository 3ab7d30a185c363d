"""Exact ranks and linear solves on reduced columns over the Gaussian rationals.

A column is the reduced form `(den, {key: (re, im)})` that `poly` owns: the
vector with entry (re + i im) / den at each key and zero elsewhere, over any
hashable keys, such as `SpinorPoly.column` or a column of
`operators.image_columns`.  Each key is a row.  Solutions come back as
`GRational` values, one list per right-hand side, indexed like the columns.

The columns are first split into blocks, joined by a union-find over shared
keys, and each block is eliminated on its own rows.  A row is built directly
from the integer entries of its key: each entry is scaled by the lcm of the
denominators of the columns that hold the key, and the row is divided by its
content (the gcd of all real and imaginary parts), so it is a primitive
Gaussian-integer row.  Elimination is Gauss-Jordan with the row update
p * row - f * pivot_row, where p is the pivot and f the row's entry in the
pivot column, followed by division by the content of the new row.  No
fraction is formed until a solution is read off.  Pivoting picks the first
nonzero entry in column order, which is always valid over an exact field and
keeps the elimination deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import GRational


def _systems(columns: list, rhs_columns: list = ()) -> tuple[list, bool]:
    """The blocks of columns connected through shared keys, ordered by first
    column, as (column indices ascending, primitive rows) pairs.  Each row
    holds one key's entries in the block's columns, then in the rhs columns.
    Also returns whether an rhs column holds a key that no column does."""
    parent = list(range(len(columns)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    owner: dict = {}
    for j, (_, entries) in enumerate(columns):
        for key in entries:
            a, b = find(owner.setdefault(key, j)), find(j)
            parent[max(a, b)] = min(a, b)
    blocks: dict[int, list[int]] = {}
    for j in range(len(columns)):
        blocks.setdefault(find(j), []).append(j)
    # (slot, den, re, im) per key; the negative slots of the rhs columns
    # index the row from its end.
    held: dict = {key: [] for key in owner}
    for cols in blocks.values():
        for slot, j in enumerate(cols):
            den, entries = columns[j]
            for key, (re, im) in entries.items():
                held[key].append((slot, den, re, im))
    for slot, (den, entries) in enumerate(rhs_columns, -len(rhs_columns)):
        for key, (re, im) in entries.items():
            if key in held:
                held[key].append((slot, den, re, im))
    rows: dict[int, list] = {root: [] for root in blocks}
    for key, items in held.items():
        root = find(owner[key])
        den = math.lcm(*(d for _, d, _, _ in items))
        size = len(blocks[root]) + len(rhs_columns)
        re, im = [0] * size, [0] * size
        for slot, d, x, y in items:
            re[slot], im[slot] = x * (den // d), y * (den // d)
        rows[root].append(_primitive(re, im))
    stray = any(key not in owner for _, entries in rhs_columns for key in entries)
    return [(cols, rows[root]) for root, cols in blocks.items()], stray


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


def rank(columns: list) -> int:
    """The rank of the reduced columns."""
    systems, _ = _systems(columns)
    return sum(len(_reduce(rows, len(cols), full=False)) for cols, rows in systems)


def solve(columns: list, rhs_columns: list) -> list[list]:
    """Solve sum_j x_j columns[j] = rhs for each right-hand-side column.

    The system may be overdetermined but must be consistent with a unique
    solution (full column rank).  Returns the solution values x_j, one list
    per right-hand side.  A singular matrix is reported before an
    inconsistent right-hand side, such as one holding a key that no column
    holds.
    """
    systems, stray = _systems(columns, rhs_columns)
    for cols, rows in systems:
        if len(_reduce(rows, len(cols), full=True)) < len(cols):
            raise ValueError("singular system: matrix does not have full column rank")
    for cols, rows in systems:
        width = len(cols)
        for re, im in rows[width:]:
            if any(re[width:]) or any(im[width:]):
                raise ValueError("inconsistent system")
    if stray:
        raise ValueError("inconsistent system")
    solutions = [[None] * len(columns) for _ in rhs_columns]
    for cols, rows in systems:
        width = len(cols)
        for j, c in enumerate(cols):
            re, im = rows[j]
            pr, pi = re[j], im[j]
            norm = pr * pr + pi * pi
            for solution, br, bi in zip(solutions, re[width:], im[width:]):
                solution[c] = GRational(
                    Fraction(br * pr + bi * pi, norm), Fraction(bi * pr - br * pi, norm)
                )
    return solutions
