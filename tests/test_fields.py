"""Field tower: rationals, prime fields, and small extensions."""

import fractions
import itertools
import pickle
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from nichols.errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedSpec,
    NicholsError,
    NonPrimeCharacteristic,
    ReduciblePolynomial,
)
from nichols.fields import (
    EXPONENT_BOUND,
    PRIME_BOUND,
    TABLE_ORDER,
    ExtensionField,
    FieldElement,
    PrimeField,
    TabulatedField,
    _poly_trim,
    parse_field_spec,
)
from conftest import random_element


# -- the polynomial route, the oracle an extension's payload arithmetic is held to


def _poly_add(base, a, b):
    n = max(len(a), len(b))
    z = base._from_int(0)
    out = [
        base._add(a[i] if i < len(a) else z, b[i] if i < len(b) else z)
        for i in range(n)
    ]
    return _poly_trim(base, out)


def _poly_mul(base, a, b):
    if not a or not b:
        return ()
    z = base._from_int(0)
    out = [z] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = base._add(out[i + j], base._mul(ca, cb))
    return _poly_trim(base, out)


def _poly_divmod(base, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    a = list(a)
    q = [base._from_int(0)] * max(0, len(a) - len(b) + 1)
    lead_inv = base._inv(b[-1])
    while len(_poly_trim(base, a)) >= len(b):
        a = list(_poly_trim(base, a))
        shift = len(a) - len(b)
        factor = base._mul(a[-1], lead_inv)
        q[shift] = base._add(q[shift], factor)
        for i, cb in enumerate(b):
            a[shift + i] = base._add(a[shift + i], base._neg(base._mul(factor, cb)))
    return _poly_trim(base, q), _poly_trim(base, a)


def _reduce(field, cs):
    """cs mod the field's modulus, padded to a payload."""
    _, rem = _poly_divmod(field.base, _poly_trim(field.base, cs), field.modulus)
    return field._pad(rem)


def test_rational_literals(QQ):
    assert QQ.parse("-7/3").value == fractions.Fraction(-7, 3)
    assert QQ.parse("4") == QQ.from_int(4)
    assert str(QQ.parse("1/2")) == "1/2"


def test_prime_field_wraps(F5):
    assert F5.parse("7") == F5.from_int(2)
    assert F5.parse("-1") == F5.from_int(4)
    assert str(F5.from_int(-1)) == "4"


@pytest.mark.parametrize("spec", ["Q", "Fp:5", "ext:Fp:3:1,0,1", "ext:Q:-2,0,0,0,1"])
def test_spec_round_trip(spec):
    assert parse_field_spec(spec).spec == spec


def test_field_axioms_on_samples(QQ, F7, F9, rng):
    for field in (QQ, F7, F9):
        for _ in range(25):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a - a == field.zero
            if b:
                assert (a / b) * b == a
                assert b * b.inv() == field.one


def test_pow_negative_exponent(F7):
    a = F7.from_int(3)
    assert a**-1 == a.inv()
    assert a**-2 * a**2 == F7.one
    assert a**0 == F7.one


def test_division_by_zero(F5):
    with pytest.raises(DivisionByZero):
        F5.one / F5.zero
    with pytest.raises(DivisionByZero):
        F5.zero.inv()


def test_cross_field_operations_rejected(F5, F7):
    with pytest.raises(FieldMismatch):
        F5.one + F7.one


def test_f9_generator_arithmetic(F9):
    t = F9.gen()
    # t^2 = -1 in F_3[t]/(t^2+1)
    assert t * t == F9.from_int(-1)
    assert t**4 == F9.one
    assert t**8 == F9.one
    assert t**2 != F9.one
    assert str(t) == "t"
    assert F9.parse("1+2*t") == F9.one + F9.from_int(2) * t


def test_f9_element_count(F9):
    elements = list(F9.elements())
    assert len(elements) == 9
    assert len(set(elements)) == 9
    assert len(list(F9.units())) == 8


def test_extension_over_q(QQ):
    # Q(2^(1/4)) via x^4 - 2
    field = parse_field_spec("ext:Q:-2,0,0,0,1")
    t = field.gen()
    assert t**4 == field.from_int(2)
    assert (t**2 + field.one) * (t**2 - field.one) == t**4 - field.one
    half = field.parse("1/2")
    assert half + half == field.one


def test_reducible_polynomials_rejected():
    with pytest.raises(ReduciblePolynomial):
        parse_field_spec("ext:Fp:5:1,0,1")  # t^2+1 = (t+2)(t+3) mod 5
    with pytest.raises(ReduciblePolynomial):
        parse_field_spec("ext:Q:1,0,-2,0,1")  # (x^2-1)^2 ... has root 1
    with pytest.raises(ReduciblePolynomial):
        parse_field_spec("ext:Q:4,0,5,0,1")  # (x^2+1)(x^2+4)


def test_irreducible_quartics_accepted():
    parse_field_spec("ext:Q:1,0,0,0,1")  # x^4 + 1
    parse_field_spec("ext:Fp:2:1,1,0,0,1")  # x^4 + x + 1 over F_2


def _reducible_by_search(base, mod) -> bool:
    """The exhaustive oracle: a root in F_p, or, for a quartic, a monic quadratic factor."""
    p = base.p
    if any(sum(c * x**i for i, c in enumerate(mod)) % p == 0 for x in range(p)):
        return True
    return len(mod) == 5 and any(
        not _poly_divmod(base, mod, (c, b, 1))[1] for b in range(p) for c in range(p)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducibility_matches_search(p):
    base = PrimeField(p)
    degrees = (2, 3) if p == 7 else (2, 3, 4)  # 2401 quartics over F_7 take seconds
    irreducible = dict.fromkeys(degrees, 0)
    for d in degrees:
        for low in itertools.product(range(p), repeat=d):
            mod = low + (1,)
            try:
                ExtensionField(base, mod)
                reducible = False
            except ReduciblePolynomial:
                reducible = True
            assert reducible == _reducible_by_search(base, mod), mod
            irreducible[d] += not reducible
    # Gauss's count of monic irreducibles: (p^2 - p)/2, (p^3 - p)/3, (p^4 - p^2)/4
    gauss = {2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}
    assert irreducible == {d: gauss[d] for d in degrees}


_FACTOR = st.integers(-6, 6)


def _poly(lead, low):
    """Integer coefficients, constant term first, with a nonzero leading one."""
    return st.tuples(*[_FACTOR] * low, lead)


@settings(max_examples=150, deadline=None)
@given(
    factors=st.one_of(
        st.tuples(_poly(st.integers(1, 6), 1), _poly(st.integers(-6, -1), 3)),
        st.tuples(_poly(st.integers(1, 6), 1), _poly(st.integers(1, 6), 1)),
        st.tuples(_poly(st.integers(-6, -1), 2), _poly(st.integers(1, 6), 2)),
    )
)
@example(factors=((-1, 0, 1), (-1, 0, 1)))  # (x^2 - 1)^2
@example(factors=((2, 0, 1), (3, 0, 1)))  # no rational root
def test_products_over_q_are_refused(factors):
    a, b = factors
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    match = "rational root" if 2 in (len(a), len(b)) else "rational root|quadratic factor"
    with pytest.raises(ReduciblePolynomial, match=match):
        parse_field_spec("ext:Q:" + ",".join(map(str, product)))


def test_quartic_reducible_mod_every_prime_is_irreducible_over_q():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3): one of 2, 3
    # and 6 is a square mod every p, so it is reducible mod every prime
    field = parse_field_spec("ext:Q:1,0,-10,0,1")
    assert field.degree == 4
    for p in (2, 3, 5, 7, 11, 13):
        with pytest.raises(ReduciblePolynomial):
            parse_field_spec(f"ext:Fp:{p}:1,0,{-10 % p},0,1")


@pytest.mark.parametrize("coeffs, reducible", [("2,0,1", False), ("1,0,1", True)])
def test_irreducibility_over_a_large_prime(coeffs, reducible):
    # p = 999999999989 = 5 mod 8: -1 is a square and -2 is not; a search over
    # the p residues once ran for minutes
    start = time.perf_counter()
    if reducible:
        with pytest.raises(ReduciblePolynomial):
            parse_field_spec(f"ext:Fp:999999999989:{coeffs}")
    else:
        parse_field_spec(f"ext:Fp:999999999989:{coeffs}")
    assert time.perf_counter() - start < 1.0


def test_malformed_specs_rejected():
    for bad in ("", "Zp:5", "Fp:", "Fp:abc", "ext:Fp:3", "ext:Fp:3:1", "ext:Fp:3:1,0"):
        with pytest.raises(MalformedSpec):
            parse_field_spec(bad)


# the examples: Fraction raises a bare ZeroDivisionError on a zero denominator
@pytest.mark.parametrize("spec", ["Q", "Fp:5", "ext:Fp:3:1,0,1", "ext:Q:-2,0,1",
                                  "ext:Fp:101:2,0,1"])
@settings(max_examples=200, deadline=None)
@given(text=st.text("0123456789/+-*t^ ", max_size=12))
@example(text="1/0")
@example(text="1/00")
@example(text="1/0*t")
def test_element_literal_is_a_value_or_a_nichols_error(spec, text):
    field = parse_field_spec(spec)
    try:
        x = field.parse(text)
    except NicholsError:
        return
    assert x.field == field


@pytest.mark.parametrize("prefix", ["", "Fp:", "ext:Fp:", "ext:Fp:3:", "ext:Q:"])
@settings(max_examples=200, deadline=None)
@given(body=st.text("0123456789/+-*t^ ,:QFpext", max_size=12))
@example(body="1/0,0,1")
@example(body="2,1/00,1")
def test_spec_body_is_a_field_or_a_nichols_error(prefix, body):
    try:
        field = parse_field_spec(prefix + body)
    except NicholsError:
        return
    assert parse_field_spec(field.spec) == field


@pytest.mark.parametrize("spec", ["Q", "Fp:5", "ext:Fp:3:1,0,1", "ext:Fp:101:2,0,1",
                                  "ext:Q:-2,0,1"])
def test_one_field_per_spec(spec):
    assert parse_field_spec(spec) is parse_field_spec(spec)


@pytest.mark.parametrize("spec, error", [("Fp:4", NonPrimeCharacteristic),
                                         ("ext:Fp:3:1,1,1", ReduciblePolynomial),
                                         ("ext:Fp:3:", MalformedSpec)])
def test_malformed_spec_refused_on_every_call(spec, error):
    # a refusal is raised, never kept, so it comes again on the next call
    for _ in range(3):
        with pytest.raises(error):
            parse_field_spec(spec)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        parse_field_spec("Fp:6")
    with pytest.raises(NonPrimeCharacteristic):
        parse_field_spec("Fp:1")


def test_prime_bound():
    # the largest prime below the bound is admitted; one past it is refused
    assert parse_field_spec("Fp:999999999989").order == 999999999989
    assert PRIME_BOUND == 10**12
    with pytest.raises(MalformedSpec):
        parse_field_spec(f"Fp:{PRIME_BOUND + 39}")


def test_render_parse_round_trip(F9, QQ, rng):
    for field in (F9, QQ):
        for _ in range(20):
            x = random_element(field, rng)
            assert field.parse(str(x)) == x


def test_characteristic_law(QQ, F5, F9):
    for field in (F5, F9):
        p = field.characteristic
        acc = field.zero
        for _ in range(p):
            acc = acc + field.one
        assert not acc
    acc = QQ.zero
    for _ in range(101):
        acc = acc + QQ.one
        assert acc  # never wraps to zero


# every quadratic F_9 modulus, F_25, F_16 and a quartic over Q
KERNEL_SPECS = [
    "ext:Fp:3:1,0,1",
    "ext:Fp:3:2,1,1",
    "ext:Fp:3:2,2,1",
    "ext:Fp:5:2,0,1",
    "ext:Fp:2:1,1,0,0,1",
    "ext:Q:-2,0,0,0,1",
]


def _generic(field):
    """The coefficient-tuple route of an extension: itself unless tabulated."""
    return field.generic if isinstance(field, TabulatedField) else field


def _payloads(field):
    """Coefficient tuples of the untabulated extension field."""
    if field.base.order is None:
        coeff = st.builds(
            fractions.Fraction, st.integers(-9, 9), st.integers(1, 9)
        )
    else:
        coeff = st.integers(0, field.base.p - 1)
    return st.tuples(*[coeff] * field.degree)


@pytest.mark.parametrize("spec", KERNEL_SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extension_kernel_matches_polynomial_route(spec, data):
    # the tuple route, which also fills the tables of a tabulated field
    field = _generic(parse_field_spec(spec))
    base = field.base
    a = data.draw(_payloads(field))
    b = data.draw(_payloads(field))
    assert field._mul(a, b) == _reduce(field, _poly_mul(base, a, b))
    assert field._add(a, b) == field._pad(_poly_add(base, a, b))
    assert field._add(a, field._neg(a)) == field._from_int(0)
    if not field._is_zero(a):
        assert field._mul(a, field._inv(a)) == field._from_int(1)


@pytest.mark.parametrize("spec", KERNEL_SPECS + ["ext:Fp:101:2,0,1", "ext:Q:3,-1,0,1"])
def test_reduction_rows_and_literals_match_polynomial_route(spec):
    # the rows and the literal terms c*t^e are built by the tuple route's _mul;
    # a tabulated field reads its literals through that route
    field = parse_field_spec(spec)
    generic = _generic(field)
    base, d = field.base, field.degree
    one, two = base._from_int(1), base._from_int(2)
    for k, row in enumerate(generic._rows):
        assert row == _reduce(generic, (base._from_int(0),) * (d + k) + (one,))

    def element(cs):
        payload = _reduce(generic, cs)
        return FieldElement(field, payload if generic is field else field._index[payload])

    for e in range(3 * d):
        mono = (base._from_int(0),) * e + (two,)
        assert field.parse(f"2*t^{e}") == element(mono)
        assert field.parse(f"1+-t^{e}") == field.one - element(mono[:-1] + (one,))


@pytest.mark.parametrize("spec", ["ext:Q:-2,0,0,0,1", "ext:Fp:3:1,0,1"])
def test_long_sums_of_large_powers_parse_quickly(spec):
    # t^e is squared and multiplied up, once per exponent of a literal: with
    # e products per term this literal took 7.1 s over Q and 0.70 s over F_9
    field = parse_field_spec(spec)
    generic = _generic(field)
    literal = "+".join(["t^1000"] * 200)
    start = time.perf_counter()
    value = field.parse(literal)
    assert time.perf_counter() - start < 0.1
    assert value == 200 * field.parse("t^1000")
    for e in (0, 1, 2, 5, 64, 333, EXPONENT_BOUND):
        power = generic._from_int(1)
        for _ in range(e):
            power = generic._mul(power, generic._t)
        assert generic.parse(f"t^{e}").value == power


def test_q_modulus_height_bound():
    # the worst case at the bound (a^3 e0 = 999 * 10^9) still parses
    assert parse_field_spec("ext:Q:999,0,0,0,1000").degree == 4
    for spec in ("ext:Q:1001,0,1", "ext:Q:1/1001,0,1", "ext:Q:1,0,0,0,1/1001"):
        with pytest.raises(MalformedSpec, match="exceed 1000"):
            parse_field_spec(spec)


# every tabulated field: F_4, F_8, the three F_9 moduli, F_16, F_25, F_27, F_49
TABULATED_SPECS = [
    "ext:Fp:2:1,1,1",
    "ext:Fp:2:1,1,0,1",
    "ext:Fp:3:1,0,1",
    "ext:Fp:3:2,1,1",
    "ext:Fp:3:2,2,1",
    "ext:Fp:2:1,1,0,0,1",
    "ext:Fp:5:2,0,1",
    "ext:Fp:3:1,2,0,1",
    "ext:Fp:7:1,0,1",
]


@pytest.mark.parametrize("spec", TABULATED_SPECS)
def test_tables_match_polynomial_route_exhaustively(spec):
    field = parse_field_spec(spec)
    assert isinstance(field, TabulatedField) and field.order <= TABLE_ORDER
    assert pickle.loads(pickle.dumps(field)) is field
    generic, base, p = field.generic, field.base, field.base.p
    # index <-> coefficient tuple, in itertools.product order
    tuples = list(itertools.product(range(p), repeat=field.degree))
    assert [field._tuples[i] for i in range(field.order)] == tuples
    assert {c: field._index[c] for c in tuples} == {c: i for i, c in enumerate(tuples)}
    assert [str(u) for u in field.units()] == [str(u) for u in generic.units()]
    index = field._index.__getitem__
    one = index(generic._from_int(1))
    for i, a in enumerate(tuples):
        for j, b in enumerate(tuples):
            assert field._mul(i, j) == index(_reduce(generic, _poly_mul(base, a, b)))
            assert field._add(i, j) == index(generic._pad(_poly_add(base, a, b)))
        assert field._neg(i) == index(tuple(base._neg(c) for c in a))
        if i:
            inverse = field._tuples[field._inv(i)]
            assert index(_reduce(generic, _poly_mul(base, a, inverse))) == one
    for n in range(-2 * p, 2 * p):
        assert field._from_int(n) == index(generic._pad((n % p,)))
    with pytest.raises(DivisionByZero):
        field._inv(0)


@pytest.mark.parametrize("spec", TABULATED_SPECS)
def test_tabulated_payloads_are_indices(spec, rng):
    # a coefficient tuple is no payload here: it fails at its first product
    field = parse_field_spec(spec)
    x = random_element(field, rng, nonzero=True)
    assert x.value in range(1, field.order)
    assert str(field.gen()) == "t" and field.parse(str(x)) == x
    with pytest.raises(TypeError):
        FieldElement(field, field._tuples[x.value]) * x


@pytest.mark.parametrize("spec, square", [
    ("ext:Fp:101:2,0,1", "99"),
    ("ext:Fp:999999999989:2,0,1", "999999999987"),
    ("ext:Q:-2,0,1", "2"),
])
def test_untabulated_extensions_multiply_by_convolution(spec, square, rng):
    # too large or infinite to list: the convolution and solve routes serve
    field = parse_field_spec(spec)
    t = field.gen()
    assert t * t == field.parse(square)
    for _ in range(20):
        a, b = random_element(field, rng), random_element(field, rng)
        assert field._mul(a.value, b.value) == _reduce(
            field, _poly_mul(field.base, a.value, b.value)
        )
        if a:
            assert a * a.inv() == field.one
    with pytest.raises(DivisionByZero):
        field._inv(field._from_int(0))


@pytest.mark.parametrize("spec, literal", [
    ("Q", "-3/7"),
    ("Fp:7", "5"),
    ("ext:Fp:3:1,0,1", "2+t"),
    ("ext:Q:-2,0,1", "1/2+t"),
])
def test_elements_pickle_round_trip(spec, literal):
    # scan workers receive their units as pickled elements
    x = parse_field_spec(spec).parse(literal)
    copy = pickle.loads(pickle.dumps(x))
    assert copy == x and str(copy) == literal
    assert copy.field == x.field and copy.value == x.value


def test_braiding_params_pickle_round_trip():
    from nichols.qcalc import BraidingParams

    field = parse_field_spec("ext:Fp:3:1,0,1")
    params = BraidingParams(*(field.parse(v) for v in ("1+t", "t", "2", "2*t")))
    copy = pickle.loads(pickle.dumps(params))
    assert copy == params and hash(copy) == hash(params)
    assert copy.r == params.r
