import random

import pytest

from nichols.fields import parse_field_spec
from nichols.qcalc import BraidingParams


@pytest.fixture
def rng():
    return random.Random(20260814)


@pytest.fixture(scope="session")
def QQ():
    return parse_field_spec("Q")


@pytest.fixture(scope="session")
def F3():
    return parse_field_spec("Fp:3")


@pytest.fixture(scope="session")
def F5():
    return parse_field_spec("Fp:5")


@pytest.fixture(scope="session")
def F7():
    return parse_field_spec("Fp:7")


@pytest.fixture(scope="session")
def F9():
    # F_3[t] / (t^2 + 1); t^2 = -1, so t has order 4 and 1 + t generates the 8 units
    return parse_field_spec("ext:Fp:3:1,0,1")


def qrs(field, q, r, s):
    return BraidingParams.from_qrs(
        field.from_int(q) if isinstance(q, int) else field.parse(q),
        field.from_int(r) if isinstance(r, int) else field.parse(r),
        field.from_int(s) if isinstance(s, int) else field.parse(s),
    )


@pytest.fixture
def make_params():
    return qrs


@pytest.fixture
def char3_params(F3):
    # the running characteristic-3 example: q = 1, r = 2, s = 2
    return qrs(F3, 1, 2, 2)


@pytest.fixture
def f9_params(F9):
    # q = r = t, s = -1 over F_9
    return qrs(F9, "t", "t", "-1")


@pytest.fixture
def generic_q_params(QQ):
    # q = 2, r = 3, s = 5: no q-integer or b_k vanishes over Q
    return qrs(QQ, 2, 3, 5)
