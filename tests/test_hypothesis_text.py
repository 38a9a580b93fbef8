"""The exact text of every refusal and skip row at a level where
(m)_q^! b_m = 0, and the typed errors of the coordinate vectors.

At q = -1 over Q, (2)_q = 0, so (m)_q^! b_m = 0 at every level m >= 2
while level 1 still has its u_hat basis.
"""

import json

import pytest

from nichols.braided import GradedElement
from nichols.cli import run_command
from nichols.errors import FieldMismatch, HypothesisViolated, OutOfRange
from nichols.fields import parse_field_spec
from nichols.jset import multiplicity, non_root_table_check, root_vector_criterion
from nichols.oracle import ker_cap_Um, verify_main
from nichols.qcalc import BraidingParams
from nichols.rootvec import (
    UhatBasisVector,
    ad_p_closed_form,
    ad_pow_coords,
    l_n,
    p_k,
    s_kt,
    uhat_coords,
)

QQ = parse_field_spec("Q")
POINT = BraidingParams.from_qrs(QQ.from_int(-1), QQ.from_int(2), QQ.from_int(3))
ARGS = ["--field", "Q", "--q", "-1", "--r", "2", "--s", "3", "--format", "json"]


def _level_one_vector():
    return UhatBasisVector.from_coords(POINT, (QQ.one, QQ.zero))


REFUSALS = [
    (lambda: multiplicity(2, POINT), "(2)_q^! b_2 = 0; the corollary does not apply"),
    (lambda: root_vector_criterion(2, 1, POINT), "(3)_q^! b_3 = 0"),
    (lambda: non_root_table_check(4, POINT), "(4)_q^! b_4 = 0"),
    (lambda: ker_cap_Um(2, POINT), "(2)_q^! b_2 = 0; the u_hat basis is undefined"),
    (lambda: verify_main(3, POINT), "(3)_q^! b_3 = 0; theorem hypothesis fails"),
    (lambda: p_k(2, POINT), "(2)_q^! b_2 = 0 while building P_2"),
    (lambda: s_kt(3, 1, POINT), "(3)_q^! b_3 = 0 while building S(3,1)"),
    (lambda: ad_p_closed_form(1, 2, POINT),
     "(3)_q^! b_3 = 0 while building (ad x1)^1(P_2)"),
    (lambda: uhat_coords(GradedElement.zero(QQ), 2, POINT),
     "(2)_q^! b_2 = 0 while building coordinate extraction"),
    (lambda: ad_pow_coords(2, _level_one_vector(), POINT),
     "(3)_q^! b_3 = 0 while building (ad x1)^2 into level 3"),
    (lambda: l_n(2, POINT, 0), "(2)_q^! b_2 = 0 while building L_2"),
    (lambda: UhatBasisVector(POINT, 2, (QQ.zero,) * 3),
     "(2)_q^! b_2 = 0 while building a U_m coordinate vector"),
]


@pytest.mark.parametrize("route, message", REFUSALS)
def test_refusal_text(route, message):
    with pytest.raises(HypothesisViolated) as info:
        route()
    assert str(info.value) == message


def test_negative_level_is_refused_before_the_hypothesis():
    with pytest.raises(OutOfRange) as info:
        verify_main(-1, POINT)
    assert str(info.value) == "levels need a start and a step >= 0, got range(-1, 0)"


def _rows(capsys, argv, key):
    assert run_command(argv + ARGS) == 0
    return json.loads(capsys.readouterr().out)[key]


def test_verify_skip_rows(capsys):
    rows = _rows(capsys, ["verify", "--max", "3"], "reports")
    assert [row.get("skipped") for row in rows] == [
        None, None, "(2)_q^! b_2 = 0", "(3)_q^! b_3 = 0"
    ]


def test_multiplicity_skip_rows(capsys):
    rows = _rows(capsys, ["multiplicity", "--max", "3"], "rows")
    assert rows[2:] == [
        {"m": 2, "skipped": "(2)_q^! b_2 = 0"},
        {"m": 3, "skipped": "(3)_q^! b_3 = 0"},
    ]


def test_table1_skip_rows(capsys):
    rows = _rows(capsys, ["table1"], "rows")
    assert rows[1:] == [{"m": m, "skipped": f"({m})_q^! b_{m} = 0"} for m in (2, 3, 4, 6)]


# -- typed errors of the coordinate vectors and the generators ------------------


def test_coordinate_count_is_out_of_range():
    with pytest.raises(OutOfRange, match="level 2 needs 3 coordinates"):
        UhatBasisVector(POINT, 2, (QQ.one,))


def test_sum_across_levels_is_out_of_range():
    zero = UhatBasisVector.zero(POINT, 0)
    with pytest.raises(OutOfRange, match="levels or params differ"):
        zero + _level_one_vector()


def test_outsider_coordinates_are_out_of_range():
    x = GradedElement.from_word(QQ, (1, 2, 2))  # not a combination of the U_1 pairs
    with pytest.raises(OutOfRange, match="element does not lie in U_m"):
        uhat_coords(x, 1, POINT)


def test_bad_generator_letter_is_out_of_range():
    with pytest.raises(OutOfRange, match="letter must be 1 or 2, got 3"):
        GradedElement.generator(QQ, 3)


def test_coordinates_from_another_field_are_refused():
    f5, f7 = parse_field_spec("Fp:5"), parse_field_spec("Fp:7")
    params = BraidingParams.from_qrs(f5.from_int(2), f5.from_int(3), f5.from_int(4))
    with pytest.raises(FieldMismatch):
        UhatBasisVector.from_coords(params, (f7.one, f7.one))
    with pytest.raises(FieldMismatch):
        UhatBasisVector(params, 1, (f5.one, f7.one))
