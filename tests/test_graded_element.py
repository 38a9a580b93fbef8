"""GradedElement on raw payload terms: arithmetic against FieldElement
arithmetic, serialization, canonical keys, and the field boundary."""

import fractions

import pytest
from hypothesis import given, settings, strategies as st

from nichols.braided import GradedElement
from nichols.errors import FieldMismatch
from nichols.fields import FieldElement, parse_field_spec

SPECS = ["Q", "Fp:7", "ext:Fp:3:1,0,1", "ext:Fp:2:1,1,0,0,1", "ext:Q:-2,0,0,0,1"]
FIELDS = {spec: parse_field_spec(spec) for spec in SPECS}


def _base_payloads(field):
    if field.order is None:
        return st.builds(fractions.Fraction, st.integers(-9, 9), st.integers(1, 9))
    return st.integers(0, field.p - 1)


def _elements(field):
    if hasattr(field, "base"):
        payload = st.tuples(*[_base_payloads(field.base)] * field.degree)
    else:
        payload = _base_payloads(field)
    coeff = payload.map(lambda v: FieldElement(field, v))
    word = st.lists(st.sampled_from((1, 2)), max_size=4).map(tuple)
    return st.dictionaries(word, coeff, max_size=4).map(
        lambda terms: GradedElement(field, terms)
    )


def _draw(data, spec, n):
    field = FIELDS[spec]
    return field, [data.draw(_elements(field)) for _ in range(n)]


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip_and_negation(spec, data):
    field, (x,) = _draw(data, spec, 1)
    assert GradedElement.from_json(field, x.to_json()) == x
    assert (x + (-x)).is_zero()
    assert all(not field._is_zero(c) for c in x.terms.values())


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_coefficients_sum_over_splits(spec, data):
    field, (x, y) = _draw(data, spec, 2)
    product = x * y
    for w in {u + v for u in x.terms for v in y.terms} | set(product.terms):
        expected = field.zero
        for k in range(len(w) + 1):
            expected = expected + x.coeff(w[:k]) * y.coeff(w[k:])
        assert product.coeff(w) == expected


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_equal_exactly_when_equal(spec, data):
    field, (x, y) = _draw(data, spec, 2)
    same = GradedElement(field, {w: x.coeff(w) for w in reversed(list(x.terms))})
    for a, b in ((x, y), (x, same), (x, (x + y) - y), (x + y, y + x)):
        assert (a.key() == b.key()) == (a == b)
    assert x.key() == same.key() and x == same


@pytest.mark.parametrize("target", ["Fp:5", "ext:Fp:3:1,0,1"])
def test_foreign_coefficients_raise_field_mismatch(target):
    F7, other = parse_field_spec("Fp:7"), parse_field_spec(target)
    three = F7.from_int(3)
    with pytest.raises(FieldMismatch):
        GradedElement(other, {(1, 2): three})
    with pytest.raises(FieldMismatch):
        GradedElement.from_word(other, (1, 2), three)
    with pytest.raises(FieldMismatch):
        GradedElement.generator(other, 1).scale(three)
