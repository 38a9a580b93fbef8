"""Classification of the defect set J and the multiplicity corollaries."""

import pytest

from nichols.errors import HypothesisViolated, OutOfRange, UnsupportedM
from nichols.jset import (
    _divides,
    compute_J,
    m_prime,
    multiplicity,
    non_root_table_check,
    root_vector_criterion,
)
from nichols.fields import parse_field_spec
from nichols.qcalc import BraidingParams, qfact_b


def test_divides_convention():
    # d | x with d = 0 holds only for x = 0 (so characteristic 0 never
    # triggers the p | (j - n) clauses)
    assert _divides(0, 0)
    assert not _divides(0, 3)
    assert _divides(3, 6)
    assert not _divides(3, 7)


def test_char3_example(char3_params):
    cls = compute_J(6, char3_params)
    assert cls.j_set() == [0, 3, 6]
    assert cls.j1() == [0]
    assert [(e.j, e.witness) for e in cls.members if e.cls == "J2"] == [(3, 0), (6, 0)]
    assert cls.anomalies == []
    assert cls.count_upto(3) == 2
    assert cls.count_upto(6) == 3


def test_char3_json(char3_params):
    data = compute_J(6, char3_params).to_json()
    assert data == {
        "J": [0, 3, 6],
        "J1": [0],
        "J2": [{"n": 3, "j_n": 0}, {"n": 6, "j_n": 0}],
        "bound": 6,
    }


def test_f9_example(f9_params):
    cls = compute_J(3, f9_params)
    assert cls.j_set() == [0, 3]
    assert cls.j1() == [0]
    assert cls.to_json()["J2"] == [{"n": 3, "j_n": 0}]
    assert cls.anomalies == []


def test_generic_rational_point(generic_q_params):
    # q=2, r=3, s=5 over Q: no equation is ever satisfied
    cls = compute_J(8, generic_q_params)
    assert cls.j_set() == []
    assert cls.anomalies == []


def test_zero_in_j_iff_s_is_minus_one(QQ, make_params):
    assert compute_J(0, make_params(QQ, 2, 3, -1)).j_set() == [0]
    assert compute_J(0, make_params(QQ, 2, 3, 1)).j_set() == []


def test_m_prime_cases(QQ, make_params):
    # odd m: (m+1)/2 regardless of the sign condition
    p = make_params(QQ, 2, 3, 5)
    assert m_prime(3, p) == 2
    assert m_prime(5, p) == 3
    # even m: m/2, +1 exactly when q^(m^2/4) r^(m/2) s = -1
    assert m_prime(4, p) == 2
    special = make_params(QQ, 1, 1, -1)  # q^1 r^1 s = -1 at m = 2
    assert m_prime(2, special) == 2
    assert m_prime(2, p) == 1


def test_multiplicity_generic(generic_q_params):
    # empty J: multiplicity equals m'
    assert multiplicity(2, generic_q_params) == 1
    assert multiplicity(3, generic_q_params) == 2
    assert multiplicity(4, generic_q_params) == 2


def test_multiplicity_drops_with_j(QQ, make_params):
    # q=2, r=3, s=-1: 0 in J, so m=2 loses one dimension
    p = make_params(QQ, 2, 3, -1)
    assert compute_J(2, p).j_set() == [0]
    assert multiplicity(2, p) == 0


def test_multiplicity_requires_hypothesis(char3_params):
    with pytest.raises(HypothesisViolated):
        multiplicity(3, char3_params)


def test_root_vector_criterion(QQ, make_params):
    p = make_params(QQ, 2, 3, 5)
    # empty J: the criterion |J ∩ [0, k+l]| <= l always holds
    assert root_vector_criterion(3, 2, p)
    withj = make_params(QQ, 2, 3, -1)  # 0 in J
    assert not root_vector_criterion(3, 0, withj)
    assert root_vector_criterion(3, 1, withj)
    with pytest.raises(OutOfRange):
        root_vector_criterion(1, 2, p)


def test_root_vector_criterion_equal_case_sign(QQ, make_params):
    # k = l additionally requires q^(k^2) r^k s = -1
    p = make_params(QQ, 1, 1, -1)
    assert qfact_b(2, p) == QQ.zero or True  # guard: hypothesis handled below
    with pytest.raises(HypothesisViolated):
        root_vector_criterion(1, 1, make_params(QQ, 2, 3, 5))


def test_non_root_table_m1_m2(QQ, make_params):
    # (1+s)(1-rs) = 0 marks m=1 non-root
    assert non_root_table_check(1, make_params(QQ, 2, 3, -1))
    assert non_root_table_check(1, make_params(QQ, 2, 2, "1/2"))
    assert not non_root_table_check(1, make_params(QQ, 2, 3, 5))
    # m=2 adds the factor (1 + q r^2 s)
    assert non_root_table_check(2, make_params(QQ, 2, 3, "-1/18"))
    assert not non_root_table_check(2, make_params(QQ, 2, 3, 5))


def test_non_root_table_m3(F7, make_params):
    # s = -1 and (3)_{-qr} = 0: over F_7 take q=1, r=3, so -qr = 4 and
    # (3)_4 = 1 + 4 + 16 = 21 = 0 mod 7 (and (3)_q^! b_3 != 0 there)
    assert non_root_table_check(3, make_params(F7, 1, 3, -1))
    assert not non_root_table_check(3, make_params(F7, 1, 2, 1))


def test_non_root_table_m4_and_m6(QQ, F7, make_params):
    # m=4 via the rs=1 branch: q=1, r=3, s=5 has rs = 15 = 1 and
    # (3)_{-q^2 r} = (3)_4 = 0 mod 7
    assert non_root_table_check(4, make_params(F7, 1, 3, 5))
    # and via the s=-1 branch shared with m=3
    assert non_root_table_check(4, make_params(F7, 1, 3, -1))
    assert not non_root_table_check(4, make_params(F7, 1, 2, 2))
    # m=6 needs q=1, s=-1, (3)_{-r} = 0: r=3 gives (3)_4 = 0 again
    assert non_root_table_check(6, make_params(F7, 1, 3, -1))
    assert not non_root_table_check(6, make_params(F7, 1, 2, -1))
    with pytest.raises(UnsupportedM):
        non_root_table_check(5, make_params(QQ, 2, 3, 5))


def test_gap_property_small_sweep(F5, make_params):
    # members of J are never one or two apart
    for q in F5.units():
        for r in F5.units():
            for s in F5.units():
                members = compute_J(6, make_params(F5, str(q), str(r), str(s))).j_set()
                for a in members:
                    for b in members:
                        assert a == b or abs(a - b) >= 3


def _anomaly_level(text: str) -> int:
    return int(text.split(":")[0].removeprefix("j="))


def test_classification_is_a_prefix(QQ, F3, F5, F9, make_params):
    # J is built one j at a time, so one classification up to M serves every m <= M
    points = [(field, bound, (str(q), str(r), str(s)))
              for field, bound in ((F3, 10), (F5, 10), (F9, 8))
              for q in field.units() for r in field.units() for s in field.units()]
    points += [(QQ, 12, (2, 3, 5)), (QQ, 12, (1, 2, -1))]
    for field, bound, qrs in points:
        p = make_params(field, *qrs)
        full = compute_J(bound, p)
        for m in range(bound + 1):
            part = compute_J(m, p)
            assert [e for e in full.members if e.j <= m] == part.members
            assert [a for a in full.anomalies if _anomaly_level(a) <= m] == part.anomalies


@pytest.mark.parametrize("spec, points, bound", [
    ("Fp:3", None, 12),
    ("Fp:5", None, 12),
    ("Fp:7", None, 12),
    ("ext:Fp:3:1,0,1", None, 12),
    # four entries give the matrix itself, with q21 != 1
    ("Q", [("2", "3", "5"), ("2/3", "-5/7", "11/13"), ("1", "-1", "-1"),
           ("-1", "1", "-1"), ("1", "1", "-1"), ("-1", "-1", "-1"), ("2", "1/2", "-1"),
           ("2", "3/2", "-2", "-1")], 40),
    ("ext:Q:-2,0,1", [("1", "t", "-1"), ("2", "1/2*t", "-1"), ("-1", "t", "-1"),
                      ("t", "1/2*t", "3")], 40),
], ids=["Fp:3", "Fp:5", "Fp:7", "F9", "Q", "ext:Q"])
def test_compute_J_matches_the_closed_formulas(make_params, spec, points, bound):
    # members, witnesses, anomalies and bound, against the FieldElement
    # route (None: every unit triple)
    from word_oracles import compute_J_by_elements

    field = parse_field_spec(spec)
    if points is None:
        units = [str(u) for u in field.units()]
        points = [(q, r, s) for q in units for r in units for s in units]
    j2 = 0
    for entries in points:
        if len(entries) == 4:
            p = BraidingParams(*map(field.parse, entries))
        else:
            p = make_params(field, *entries)
        cls = compute_J(bound, p)
        assert cls == compute_J_by_elements(bound, p)
        j2 += bool(cls.j2())
    assert j2 or field.characteristic == 0


def test_characteristic_zero_has_no_j2(QQ, make_params):
    # over Q the pairing condition can only be met trivially, so every
    # member is J1 -- including at s = -1 and rs = 1 edge cases
    for q, r, s in [(2, 3, 5), (2, 3, -1), (1, 2, -1), (3, "1/3", 4), (2, "1/2", -1)]:
        p = make_params(QQ, q, r, s)
        cls = compute_J(10, p)
        assert all(e.cls == "J1" for e in cls.members)


def test_q2_vanishing_matches_membership(F5, F7, F9):
    # wherever (n)_q^! b_n != 0 and some j in J1 satisfies j < n and
    # q^(n+j-1) r^2 = 1, membership of n in J2 is equivalent to the
    # vanishing of Q2^(j, n-j-1)
    from nichols.qcalc import BraidingParams, qfact_b
    from word_oracles import q2_eval

    member_hits = nonmember_hits = 0
    t = F9.gen()
    points = []
    for field in (F5, F7):
        u = [field.from_int(a) for a in range(1, field.characteristic)]
        points += [(q, r, s) for q in u for r in u for s in u]
    points.append((t, t, -F9.one))

    for q, r, s in points:
        field = q.field
        p = BraidingParams.from_qrs(q, r, s)
        cls = compute_J(8, p)
        j1 = [e.j for e in cls.members if e.cls == "J1"]
        j2 = {e.j for e in cls.members if e.cls == "J2"}
        for n in range(1, 9):
            if not qfact_b(n, p):
                continue
            for j in j1:
                if j >= n or q ** (n + j - 1) * r**2 != field.one:
                    continue
                vanishes = not q2_eval(j, n - j - 1, p)
                assert vanishes == (n in j2), (str(q), str(r), str(s), n, j)
                if n in j2:
                    member_hits += 1
                else:
                    nonmember_hits += 1
    assert member_hits >= 1 and nonmember_hits >= 30
