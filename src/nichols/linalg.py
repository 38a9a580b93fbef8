"""Exact dense linear algebra over a field, on payload rows: row reduction,
rank, nullspace and linear solving.

A matrix is a list of rows, each a list (or tuple) of the field's raw
payloads (``Fraction`` for Q, residues for F_p, coefficient tuples for
extensions), and vectors are payload lists; the field argument supplies
``_add``/``_neg``/``_mul``/``_inv``/``_is_zero``/``_from_int``.  This is
the package's only exact elimination: ranks and reduced bases in the
oracle and inverses in extension fields all go through :func:`rref`.
Pivots are the first nonzero entry in each column (deterministic bases),
and no input is modified.
"""

from __future__ import annotations


def rref(field, matrix: list) -> tuple:
    """Reduced row echelon form of a copy of matrix; returns (rows, pivot_columns)."""
    add, neg, mul, is_zero = field._add, field._neg, field._mul, field._is_zero
    rows = [list(r) for r in matrix]
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
    return rows, pivots


def rank(field, matrix: list) -> int:
    return len(rref(field, matrix)[1])


def nullspace(field, matrix: list) -> list:
    """Basis of the right kernel, one vector per free column."""
    ncols = len(matrix[0]) if matrix else 0
    reduced, pivots = rref(field, matrix)
    zero, one = field._from_int(0), field._from_int(1)
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        v = [zero] * ncols
        v[j] = one
        for row, pcol in zip(reduced, pivots):
            v[pcol] = field._neg(row[j])
        basis.append(v)
    return basis


def solve(field, matrix: list, rhs: list) -> list | None:
    """One solution of matrix @ x = rhs, or None if inconsistent."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    reduced, pivots = rref(field, [list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None  # pivot in the constant column
    x = [field._from_int(0)] * ncols
    for row, pcol in zip(reduced, pivots):
        x[pcol] = row[ncols]
    return x
