"""Exact dense linear algebra over a Field: row reduction, rank, nullspace,
and linear solving.  The API takes and returns matrices as lists of row
lists of FieldElement; elimination itself runs on raw payload rows through
the field's ``_add``/``_mul``/``_inv`` (see :func:`reduce_rows`), with
pivots chosen as the first nonzero entry in each column (deterministic
bases).
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


def reduce_rows(field: Field, rows: list) -> list:
    """Bring payload rows to reduced row echelon form in place; returns the
    pivot columns."""
    add, neg, mul, is_zero = field._add, field._neg, field._mul, field._is_zero
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next(
            (i for i in range(rank, nrows) if not is_zero(rows[i][col])), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        # entries left of col are zero in the pivot row, so row ops start at col
        inv = field._inv(rows[rank][col])
        pivot = [mul(a, inv) for a in rows[rank][col:]]
        rows[rank] = rows[rank][:col] + pivot
        for i, row in enumerate(rows):
            if i != rank and not is_zero(row[col]):
                factor = neg(row[col])
                tail = [add(a, mul(factor, b)) for a, b in zip(row[col:], pivot)]
                rows[i] = row[:col] + tail
        pivots.append(col)
    return pivots


def rref(field: Field, matrix: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot_columns).

    The input is not modified.
    """
    rows = [[x.value for x in r] for r in matrix]
    pivots = reduce_rows(field, rows)
    return [[FieldElement(field, v) for v in r] for r in rows], pivots


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
