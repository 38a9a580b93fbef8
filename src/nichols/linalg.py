"""Exact dense linear algebra over a Field: row reduction, rank, nullspace,
and linear solving.  Matrices are lists of row lists of FieldElement; all
arithmetic is field-exact, with pivots chosen as the first nonzero entry in
each column (deterministic bases).
"""

from __future__ import annotations

from .fields import Field, FieldElement


def mat_vec(field: Field, matrix: list, vec: list) -> list:
    out = []
    for row in matrix:
        acc = field.zero
        for a, x in zip(row, vec):
            acc = acc + a * x
        out.append(acc)
    return out


def rref(field: Field, matrix: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot_columns).

    The input is not modified.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [a * inv for a in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def rank(field: Field, matrix: list) -> int:
    if not matrix:
        return 0
    _, pivots = rref(field, matrix)
    return len(pivots)


def nullspace(field: Field, matrix: list, ncols: int | None = None) -> list:
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(v)
        return basis
    ncols = len(matrix[0])
    reduced, pivots = rref(field, matrix)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * ncols
        v[j] = field.one
        for row_idx, pcol in enumerate(pivots):
            v[pcol] = -reduced[row_idx][j]
        basis.append(v)
    return basis


def solve(field: Field, matrix: list, rhs: list) -> list | None:
    """One solution of matrix @ x = rhs, or None if inconsistent."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    reduced, pivots = rref(field, augmented)
    if ncols in pivots:
        return None  # pivot in the constant column
    x = [field.zero] * ncols
    for row_idx, pcol in enumerate(pivots):
        x[pcol] = reduced[row_idx][ncols]
    return x
