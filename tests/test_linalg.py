"""Exact Gaussian elimination on payload rows over the field tower."""

import fractions

import pytest
from hypothesis import given, settings, strategies as st

from nichols.errors import DivisionByZero
from nichols.fields import TabulatedField, parse_field_spec
from nichols.linalg import nullspace, rank, rref, solve
from word_oracles import mat_vec


def _mat(field, rows):
    return [[field._from_int(v) for v in row] for row in rows]


def _vec(field, vals):
    return [field._from_int(v) for v in vals]


def test_rank_over_rationals(QQ):
    m = _mat(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(QQ, m) == 2
    assert rank(QQ, _mat(QQ, [[0, 0], [0, 0]])) == 0
    assert rank(QQ, []) == 0


def test_rank_depends_on_characteristic(F5, QQ):
    rows = [[1, 2], [3, 1]]
    # det = 1 - 6 = -5: invertible over Q, singular mod 5
    assert rank(QQ, _mat(QQ, rows)) == 2
    assert rank(F5, _mat(F5, rows)) == 1


def test_rref_pivots(F7):
    m = _mat(F7, [[0, 1, 2], [1, 0, 3]])
    rows, pivots = rref(F7, m)
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1
    assert rows[0][1] == 0 and rows[1][0] == 0


def test_rref_does_not_mutate(F7):
    m = _mat(F7, [[2, 4], [1, 1]])
    snapshot = [row[:] for row in m]
    rref(F7, m)
    assert m == snapshot


def test_nullspace(F5):
    m = _mat(F5, [[1, 2, 3]])
    basis = nullspace(F5, m)
    assert len(basis) == 2
    for v in basis:
        assert not any(mat_vec(F5, m, v))


def test_solve_unique(QQ):
    m = _mat(QQ, [[2, 1], [1, 3]])
    rhs = _vec(QQ, [5, 10])
    x = solve(QQ, m, rhs)
    assert x is not None
    assert mat_vec(QQ, m, x) == rhs
    assert x == _vec(QQ, [1, 3])


def test_solve_inconsistent(QQ):
    m = _mat(QQ, [[1, 1], [2, 2]])
    assert solve(QQ, m, _vec(QQ, [1, 3])) is None


def test_solve_underdetermined_returns_some_solution(F7):
    m = _mat(F7, [[1, 2, 3]])
    rhs = _vec(F7, [4])
    x = solve(F7, m, rhs)
    assert x is not None
    assert mat_vec(F7, m, x) == rhs


SPECS = ["Q", "Fp:7", "ext:Fp:3:1,0,1", "ext:Q:-2,0,0,0,1"]
FIELDS = {spec: parse_field_spec(spec) for spec in SPECS}


def _payloads(field):
    """Payloads of field, about a third of them zero so that ranks drop."""
    if isinstance(field, TabulatedField):
        nonzero = st.integers(1, field.order - 1)
    elif hasattr(field, "base"):
        coeff = _payloads(field.base)
        return st.tuples(*[coeff] * field.degree)
    elif field.order is None:
        nonzero = st.builds(fractions.Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        nonzero = st.integers(1, field.p - 1)
    return st.one_of(st.just(field._from_int(0)), nonzero, nonzero)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_elimination_invariants(spec, data):
    field = FIELDS[spec]
    is_zero = field._is_zero
    nrows = data.draw(st.integers(1, 4))
    ncols = data.draw(st.integers(1, 4))
    row = st.lists(_payloads(field), min_size=ncols, max_size=ncols)
    matrix = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    snapshot = [list(r) for r in matrix]

    kernel = nullspace(field, matrix)
    assert rank(field, matrix) + len(kernel) == ncols
    for v in kernel:
        assert all(is_zero(c) for c in mat_vec(field, matrix, v))

    rhs = data.draw(st.lists(_payloads(field), min_size=nrows, max_size=nrows))
    x = solve(field, matrix, rhs)
    if x is not None:
        assert mat_vec(field, matrix, x) == rhs
    # a right-hand side in the column space is always solvable
    y = data.draw(row)
    assert solve(field, matrix, mat_vec(field, matrix, y)) is not None
    assert matrix == snapshot

    if hasattr(field, "base"):
        with pytest.raises(DivisionByZero):
            field._inv(field._from_int(0))
