"""Field tower: rationals, prime fields, and small extensions."""

import fractions
import itertools
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from nichols.errors import (
    DivisionByZero,
    FieldMismatch,
    MalformedSpec,
    NonPrimeCharacteristic,
    ReduciblePolynomial,
)
from nichols.fields import (
    PRIME_BOUND,
    TABLE_ORDER,
    PrimeField,
    _check_irreducible,
    _poly_add,
    _poly_divmod,
    _poly_mul,
    parse_field_spec,
)


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
            a = field.random_element(rng)
            b = field.random_element(rng)
            c = field.random_element(rng)
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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gcd_irreducibility_matches_search(p):
    base = PrimeField(p)
    irreducible = {2: 0, 3: 0, 4: 0}
    for d in (2, 3, 4):
        for low in itertools.product(range(p), repeat=d):
            mod = low + (1,)
            try:
                _check_irreducible(base, mod)
                by_gcd = False
            except ReduciblePolynomial:
                by_gcd = True
            assert by_gcd == _reducible_by_search(base, mod), mod
            irreducible[d] += not by_gcd
    # Gauss's count of monic irreducibles: (p^2 - p)/2, (p^3 - p)/3, (p^4 - p^2)/4
    assert irreducible == {2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}


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
            x = field.random_element(rng)
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


def _payloads(field):
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
    field = parse_field_spec(spec)
    base = field.base
    a = data.draw(_payloads(field))
    b = data.draw(_payloads(field))
    assert field._mul(a, b) == field._reduce(_poly_mul(base, a, b))
    assert field._add(a, b) == field._pad(_poly_add(base, a, b))
    assert field._add(a, field._neg(a)) == field._from_int(0)
    if not field._is_zero(a):
        assert field._mul(a, field._inv(a)) == field._from_int(1)


def test_q_modulus_height_bound():
    # the worst case at the bound (a^3 e0 = 999 * 10^9) still parses
    assert parse_field_spec("ext:Q:999,0,0,0,1000").degree == 4
    for spec in ("ext:Q:1001,0,1", "ext:Q:1/1001,0,1", "ext:Q:1,0,0,0,1/1001"):
        with pytest.raises(MalformedSpec, match="exceed 1000"):
            parse_field_spec(spec)


@pytest.mark.parametrize("spec", [s for s in KERNEL_SPECS if not s.startswith("ext:Q:")])
def test_tables_match_polynomial_route_exhaustively(spec):
    field = parse_field_spec(spec)
    assert field.order <= TABLE_ORDER
    base, p = field.base, field.base.p
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field
    zero, one = field._from_int(0), field._from_int(1)
    elements = list(field._iter_payloads())
    for a in elements:
        for b in elements:
            assert field._mul(a, b) == field._reduce(_poly_mul(base, a, b))
            assert field._add(a, b) == field._pad(_poly_add(base, a, b))
            assert copy._mul(a, b) == field._mul(a, b)
        assert field._add(a, field._neg(a)) == zero
        if a != zero:
            assert field._mul(a, field._inv(a)) == one
    for n in range(-2 * p, 2 * p):
        assert field._from_int(n) == field._pad((n % p,))
    with pytest.raises(DivisionByZero):
        field._inv(zero)


@pytest.mark.parametrize("spec, square", [
    ("ext:Fp:999999999989:2,0,1", "999999999987"),
    ("ext:Q:-2,0,1", "2"),
])
def test_untabulated_extensions_multiply_by_convolution(spec, square, rng):
    # too large or infinite to list: the convolution and solve routes serve
    field = parse_field_spec(spec)
    t = field.gen()
    assert t * t == field.parse(square)
    for _ in range(20):
        a, b = field.random_element(rng), field.random_element(rng)
        assert field._mul(a.value, b.value) == field._reduce(
            _poly_mul(field.base, a.value, b.value)
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
