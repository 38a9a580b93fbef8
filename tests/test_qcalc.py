"""Quantum integers, the b_k products, the per-point scalar table, and the
Q2 Laurent polynomial."""

import importlib
import pickle
import pkgutil
import typing

import pytest

import nichols
from nichols.fields import FieldElement, parse_field_spec
from nichols.oracle import LEVEL_CEILING

from nichols.errors import InternalInexactDivision
from nichols.qcalc import (
    BraidingParams,
    b_k,
    beta_coeff,
    first_equation,
    j_condition,
    lambda_coeff,
    q_binom,
    q_fact,
    q_int,
    qfact_b,
)
from word_oracles import q2_eval, q2_poly


def test_q_int_at_two(QQ):
    q = QQ.from_int(2)
    # (n)_2 = 2^n - 1
    assert [q_int(n, q).value for n in range(6)] == [0, 1, 3, 7, 15, 31]


def test_q_int_at_one_counts(F7):
    q = F7.one
    assert q_int(5, q) == F7.from_int(5)
    assert q_int(7, q) == F7.zero


def test_q_fact(QQ):
    q = QQ.from_int(2)
    assert q_fact(3, q) == QQ.from_int(1 * 3 * 7)
    assert q_fact(0, q) == QQ.one


def test_q_binom_values(QQ):
    q = QQ.from_int(2)
    # Gaussian binomial (4 choose 2) at q=2: (15*7)/(3*1) = 35
    assert q_binom(4, 2, q) == QQ.from_int(35)
    assert q_binom(4, 0, q) == QQ.one
    assert q_binom(4, 4, q) == QQ.one
    assert q_binom(3, 5, q) == QQ.zero
    assert q_binom(3, -1, q) == QQ.zero


def test_q_binom_total_in_positive_characteristic(F3):
    # at q=1 the Gaussian binomial degenerates to the ordinary one, and
    # (4 choose 2) = 6 = 0 mod 3 must come out without dividing by zero
    q = F3.one
    assert q_binom(4, 2, q) == F3.zero
    assert q_binom(3, 1, q) == F3.zero


def test_q_binom_pascal(QQ, rng):
    q = QQ.from_int(3)
    for n in range(1, 8):
        for k in range(0, n + 1):
            lhs = q_binom(n, k, q)
            rhs = q_binom(n - 1, k, q) + q ** (n - k) * q_binom(n - 1, k - 1, q)
            assert lhs == rhs


def test_q_binom_symmetry(F7):
    for qv in range(1, 7):
        q = F7.from_int(qv)
        for n in range(7):
            for k in range(n + 1):
                assert q_binom(n, k, q) == q_binom(n, n - k, q)


def test_b_k_values(generic_q_params):
    # q=2, r=3: b_1 = 1-3, b_2 = (1-3)(1-6), b_3 = (1-3)(1-6)(1-12)
    p = generic_q_params
    field = p.field
    assert b_k(0, p) == field.one
    assert b_k(1, p) == field.from_int(-2)
    assert b_k(2, p) == field.from_int(10)
    assert b_k(3, p) == field.from_int(-110)


def test_qfact_b_divisibility(F5, F7, make_params):
    # if (m)_q^! b_m != 0 then every lower (j)_q^! b_j != 0
    for field in (F5, F7):
        for q in field.units():
            for r in field.units():
                p = make_params(field, str(q), str(r), "1")
                for m in range(7):
                    if qfact_b(m, p):
                        assert all(qfact_b(j, p) for j in range(m))


def test_lambda_beta_small_values(generic_q_params):
    p = generic_q_params
    field = p.field
    assert lambda_coeff(0, 4, p) == field.one
    # lambda_(1,0) = (1 - r)(1)_q = -2 at q=2, r=3
    assert lambda_coeff(1, 0, p) == field.from_int(-2)
    # lambda_(2,0) = (1-r)(1)_q (1-qr)(2)_q = (-2)(-5*3) = 30
    assert lambda_coeff(2, 0, p) == field.from_int(30)
    assert beta_coeff(0, 1, 0, p) == field.one
    # beta_(1,1,0) = q^0 r - r^{-1} = 3 - 1/3
    assert beta_coeff(1, 1, 0, p) == field.parse("8/3")


def test_q2_poly_frozen_shapes():
    assert q2_poly(3, 0) == {(0, 0): 1}
    assert q2_poly(0, 1) == {(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1}


def test_q2_eval_frozen_value(generic_q_params):
    # 1 - r - qr + qr^2 at q=2, r=3 is 1 - 3 - 6 + 18 = 10
    p = generic_q_params
    assert q2_eval(0, 1, p) == p.field.from_int(10)


def test_q2_poly_division_is_exact_small():
    # the constructor itself raises if the division by (q^{2k+m} r^2 - 1)
    # leaves a remainder; enumerating is enough to exercise it
    for k in range(5):
        for m in range(5):
            poly = q2_poly(k, m)
            assert all(e >= 0 for (e, _) in poly)


def test_first_equation_char3(char3_params):
    # q=1, r=2, s=2 over F_3: j=0 gives s = -1, j=3 gives (-r)^3 s = s = -1.
    # (it also holds at j=1,2 here; those j are excluded from the defect set
    # by the pairing condition, not by this equation)
    assert first_equation(0, char3_params)
    assert first_equation(3, char3_params)
    assert not j_condition(1, 0, char3_params)
    assert not j_condition(2, 0, char3_params)


def test_j_condition_char3(char3_params):
    assert j_condition(3, 0, char3_params)
    assert j_condition(6, 0, char3_params)
    assert j_condition(6, 3, char3_params)
    with pytest.raises(ValueError):
        j_condition(3, 3, char3_params)


def test_braiding_params_validation(QQ, F5):
    with pytest.raises(ValueError):
        BraidingParams(QQ.one, QQ.zero, QQ.one, QQ.one)
    with pytest.raises(ValueError):
        BraidingParams(QQ.one, QQ.one, QQ.one, F5.one)


def test_shorthand_vs_matrix_agree(QQ):
    # r = q12 q21 is all that matters; compare two matrices with equal r
    q, s = QQ.from_int(2), QQ.from_int(5)
    a = BraidingParams.from_qrs(q, QQ.from_int(6), s)
    b = BraidingParams(q, QQ.from_int(3), QQ.from_int(2), s)
    assert a.r == b.r
    assert a.q == b.q and a.s == b.s
    for j in range(6):
        assert first_equation(j, a) == first_equation(j, b)
    assert qfact_b(4, a) == qfact_b(4, b)


def test_q_int_telescopes(QQ, F7, rng):
    # (n)_q (q - 1) = q^n - 1
    for field in (QQ, F7):
        for _ in range(10):
            q = field.random_nonzero(rng)
            for n in range(8):
                assert q_int(n, q) * (q - field.one) == q**n - field.one


def test_q_binom_times_factorials(QQ, rng):
    # (n choose k)_q (k)_q^! (n-k)_q^! = (n)_q^! away from factorial zeros
    for _ in range(10):
        q = QQ.random_nonzero(rng)
        for n in range(7):
            if not q_fact(n, q):
                continue
            for k in range(n + 1):
                lhs = q_binom(n, k, q) * q_fact(k, q) * q_fact(n - k, q)
                assert lhs == q_fact(n, q)


def test_q2_eval_division_identity(QQ, F5, F7, rng):
    # q2_eval(k,m) (q^{2k+m} r^2 - 1) equals the defining numerator at
    # arbitrary evaluation points (including ones where the divisor is 0)
    for field in (QQ, F5, F7):
        for _ in range(8):
            p = BraidingParams.from_qrs(
                field.random_nonzero(rng),
                field.random_nonzero(rng),
                field.random_nonzero(rng),
            )
            q, r = p.q, p.r
            one = field.one
            for k in range(4):
                for m in range(4):
                    divisor = q ** (2 * k + m) * r * r - one
                    numerator = (
                        q ** ((2 * k + m) * (m + 1) // 2) * (-r) ** (m + 1) - one
                    )
                    for i in range(m + 1):
                        numerator = numerator * (one - q ** (k + i) * r)
                    assert q2_eval(k, m, p) * divisor == numerator


def _table_points(group: str) -> list:
    """Every F_3 and F_5 unit triple, every triple of F_9 = F_3[t]/(t^2 + 1),
    two Q points with q21 != 1, and one point of Q(sqrt 2)."""
    if group == "Q":
        QQ = parse_field_spec("Q")
        return [
            BraidingParams(*(QQ.parse(v) for v in entries))
            for entries in (("2", "3/5", "-7", "5"), ("-2/3", "4", "1/3", "-1"))
        ]
    field = parse_field_spec(group)
    if group.startswith("ext:Q:"):
        return [BraidingParams(*(field.parse(v) for v in ("t", "1+t", "2", "-1")))]
    units = list(field.units())
    return [BraidingParams.from_qrs(q, r, s) for q in units for r in units for s in units]


@pytest.mark.parametrize("group", ["Fp:3", "Fp:5", "ext:Fp:3:1,0,1", "Q", "ext:Q:-2,0,1"])
def test_scalar_table_matches_closed_formulas(group):
    top = LEVEL_CEILING + 1
    ks = range(top + 1)
    by_q: dict = {}  # q -> closed q^k, (k)_q, (k)_q^!
    by_qr: dict = {}  # (q, r) -> closed b_k, c_k
    for p in _table_points(group):
        q, r, s = p.q, p.r, p.s
        if q not in by_q:
            by_q[q] = (
                [q**k for k in ks],
                [q_int(k, q) for k in ks],
                [q_fact(k, q) for k in ks],
            )
        if (q, r) not in by_qr:
            by_qr[q, r] = (
                [b_k(k, p) for k in ks],
                [q_int(k + 1, q) * (1 - q**k * r) for k in range(top)],
            )
        pows, ints, facts = by_q[q]
        bs, cs = by_qr[q, r]
        table = p.scalars.upto(top)
        column = {
            name: [FieldElement(p.field, x) for x in getattr(table, name)]
            for name in ("q_pow", "q_int", "q_fact", "b", "qfact_b", "c", "sign")
        }
        assert column["q_pow"][: top + 1] == pows
        assert column["q_int"][: top + 1] == ints
        assert column["q_fact"][: top + 1] == facts
        assert column["b"][: top + 1] == bs
        assert column["qfact_b"][: top + 1] == [f * b for f, b in zip(facts, bs)]
        assert column["c"][:top] == cs
        signs = column["sign"][: top + 1]
        assert signs == [q ** (k * (k - 1) // 2) * (-r) ** k * s for k in ks]
        assert [e == -1 for e in signs] == [first_equation(k, p) for k in ks]
        assert [qfact_b(k, p) for k in ks] == column["qfact_b"][: top + 1]


def test_scalar_table_is_left_out_of_equality_hash_and_pickle(F9):
    entries = [F9.parse(v) for v in ("1+t", "t", "2", "2*t")]
    params = BraidingParams(*entries)
    fresh = BraidingParams(*entries)
    before = hash(params)
    built = params.scalars.upto(LEVEL_CEILING)
    assert params.scalars is built
    data = pickle.dumps(params)
    assert data == pickle.dumps(fresh)
    copy = pickle.loads(data)
    assert copy == params == fresh
    assert hash(copy) == hash(params) == before
    assert "scalars" not in vars(copy)
    assert copy.scalars.upto(5).qfact_b == built.qfact_b[:6]


def test_caches_keyed_on_params_are_bounded():
    # a point's scalar table lives as long as its params, so a cache that
    # keeps every params it has seen would keep every table
    cached = {}
    for info in pkgutil.iter_modules(nichols.__path__):
        module = importlib.import_module(f"nichols.{info.name}")
        for name, fn in vars(module).items():
            if callable(getattr(fn, "cache_info", None)) and fn.__module__ == module.__name__:
                hints = typing.get_type_hints(fn.__wrapped__)
                if BraidingParams in hints.values():
                    cached[f"{info.name}.{name}"] = fn.cache_parameters()["maxsize"]
    assert {
        "qcalc.qfact_b", "rootvec.u_k", "rootvec.u_hat_k",
        "rootvec.uhat_pair_words", "oracle.symmetrizer",
    } <= set(cached)
    assert [name for name, maxsize in cached.items() if maxsize is None] == []
