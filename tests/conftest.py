import random
from fractions import Fraction

import pytest

from nichols import oracle
from nichols.braided import GradedElement
from nichols.fields import ExtensionField, FieldElement, TabulatedField, parse_field_spec
from nichols.qcalc import BraidingParams


def _random_payload(field, rng):
    if isinstance(field, TabulatedField):  # an index, never a coefficient tuple
        return rng.randrange(field.order)
    if isinstance(field, ExtensionField):
        return tuple(_random_payload(field.base, rng) for _ in range(field.degree))
    if field.order is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return rng.randrange(field.p)


def random_element(field, rng, nonzero=False) -> FieldElement:
    """A random element drawn from ``rng``; redrawn until nonzero if asked."""
    while True:
        x = FieldElement(field, _random_payload(field, rng))
        if x or not nonzero:
            return x


def element_from_json(field, data: dict) -> GradedElement:
    """The inverse of ``GradedElement.to_json``."""
    terms = {tuple(t["word"]): field.parse(t["coeff"]) for t in data["terms"]}
    return GradedElement(field, terms)


def mask_points(mask: int, points) -> set:
    """The points[k] whose bit k is set in mask: a pair route's bitmask over
    the s payloads of a (q, r) pair, read as a set."""
    return {p for k, p in enumerate(points) if mask >> k & 1}


def verify_each_point(q, r, units, max_m):
    """``oracle.verify_pair`` as the scan once ran it: ``verify_levels`` at
    every s of the pair, (checks, skipped, found) with found[j] listing the
    (m, report) of each level at units[j] that does not match the theorem."""
    checks = skipped = 0
    found = []
    levels = range(max_m + 1)
    for s in units:
        reports = list(zip(levels, oracle.verify_levels(levels, BraidingParams.from_qrs(q, r, s))))
        skipped += sum(rep is None for _, rep in reports)
        checks += sum(rep is not None for _, rep in reports)
        found.append([(m, rep) for m, rep in reports if rep and not rep.matches_theorem])
    return checks, skipped, found


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
