"""Graded elements of the free algebra, skew derivations, and superletters."""

from itertools import product

import pytest

from nichols.braided import (
    ALPHA1,
    ALPHA2,
    GradedElement,
    ad_x1,
    ad_x1_pow,
    chi,
    multidegree,
    skew_derive,
)
from nichols.errors import NonHomogeneous
from conftest import element_from_json, random_element
from word_oracles import NotLyndon, is_lyndon, shirshov_superletter


def test_multidegree():
    assert multidegree((1, 2, 1, 1)) == (3, 1)
    assert multidegree(()) == (0, 0)


def test_multidegree_counts_letters():
    # every word of length <= 8 against the letter-count definition
    for n in range(9):
        for word in product((1, 2), repeat=n):
            ones = sum(1 for letter in word if letter == 1)
            twos = sum(1 for letter in word if letter == 2)
            assert multidegree(word) == (ones, twos)


def test_chi_bicharacter(generic_q_params, rng):
    p = generic_q_params
    assert chi(ALPHA1, ALPHA1, p) == p.q11
    assert chi(ALPHA1, ALPHA2, p) == p.q12
    assert chi(ALPHA2, ALPHA1, p) == p.q21
    assert chi(ALPHA2, ALPHA2, p) == p.q22
    for _ in range(10):
        a = (rng.randrange(4), rng.randrange(4))
        b = (rng.randrange(4), rng.randrange(4))
        c = (rng.randrange(4), rng.randrange(4))
        ab = (a[0] + b[0], a[1] + b[1])
        assert chi(ab, c, p) == chi(a, c, p) * chi(b, c, p)
        assert chi(c, ab, p) == chi(c, a, p) * chi(c, b, p)


def _random_element(field, rng, nwords=3, maxlen=4):
    x = GradedElement.zero(field)
    for _ in range(nwords):
        word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(maxlen + 1)))
        x = x + GradedElement.from_word(field, word, random_element(field, rng, nonzero=True))
    return x


def test_algebra_identities(QQ, rng):
    for _ in range(15):
        x = _random_element(QQ, rng)
        y = _random_element(QQ, rng)
        z = _random_element(QQ, rng)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == GradedElement.zero(QQ)
        assert x.scale(QQ.from_int(2)) == x + x
        assert 3 * x == x + x + x


def test_zero_coefficients_are_dropped(F5):
    x1 = GradedElement.generator(F5, 1)
    assert (x1 + x1.scale(F5.from_int(4))).is_zero()
    assert not x1.is_zero()


def test_degree_and_homogeneity(QQ):
    x1 = GradedElement.generator(QQ, 1)
    x2 = GradedElement.generator(QQ, 2)
    w = x1 * x2 * x1
    assert w.degree() == (2, 1)
    with pytest.raises(NonHomogeneous):
        (x1 + x2).degree()
    with pytest.raises(NonHomogeneous):
        GradedElement.zero(QQ).degree()


def test_coeff_lookup(QQ):
    x1 = GradedElement.generator(QQ, 1)
    x2 = GradedElement.generator(QQ, 2)
    w = x1 * x2 - x2 * x1.scale(QQ.from_int(3))
    assert w.coeff((1, 2)) == QQ.one
    assert w.coeff((2, 1)) == QQ.from_int(-3)
    assert w.coeff((1, 1)) == QQ.zero


def test_skew_derivation_on_generators(generic_q_params):
    field = generic_q_params.field
    x1 = GradedElement.generator(field, 1)
    x2 = GradedElement.generator(field, 2)
    one = GradedElement.from_word(field, ())
    assert skew_derive(1, x1, generic_q_params) == one
    assert skew_derive(1, x2, generic_q_params).is_zero()
    assert skew_derive(2, x2, generic_q_params) == one
    assert skew_derive(2, x1, generic_q_params).is_zero()


def test_skew_derivation_explicit_word(generic_q_params):
    # d_1(x1 x2) = x2 + chi(deg x1, alpha1) * 0 contributions from x2 slot;
    # only the first letter matches, with prefix () so coefficient 1
    p = generic_q_params
    field = p.field
    x1 = GradedElement.generator(field, 1)
    x2 = GradedElement.generator(field, 2)
    assert skew_derive(1, x1 * x2, p) == x2
    # d_1(x2 x1) = chi(alpha2, alpha1) x2 = q21 x2
    assert skew_derive(1, x2 * x1, p) == x2.scale(p.q21)
    # d_2(x1 x2) = chi(alpha1, alpha2) x1 = q12 x1
    assert skew_derive(2, x1 * x2, p) == x1.scale(p.q12)


def test_skew_leibniz_rule(generic_q_params, rng):
    # splitting the positional sum over a product of homogeneous pieces:
    # d_i(uv) = d_i(u) v + chi(deg u, alpha_i) u d_i(v)
    p = generic_q_params
    field = p.field
    for i in (1, 2):
        for _ in range(10):
            u_word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 4)))
            v_word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 4)))
            u = GradedElement.from_word(field, u_word)
            v = GradedElement.from_word(field, v_word)
            alpha = ALPHA1 if i == 1 else ALPHA2
            lhs = skew_derive(i, u * v, p)
            twist = chi(multidegree(u_word), alpha, p)
            rhs = skew_derive(i, u, p) * v + (u * skew_derive(i, v, p)).scale(twist)
            assert lhs == rhs


def test_ad_x1(generic_q_params):
    p = generic_q_params
    field = p.field
    x1 = GradedElement.generator(field, 1)
    x2 = GradedElement.generator(field, 2)
    u1 = ad_x1(x2, p)
    assert u1 == x1 * x2 - (x2 * x1).scale(p.q12)
    assert ad_x1_pow(0, x2, p) == x2
    assert ad_x1_pow(2, x2, p) == ad_x1(u1, p)
    assert ad_x1(GradedElement.zero(field), p).is_zero()


@pytest.mark.parametrize(
    "word,expected",
    [
        ((1,), True),
        ((2,), True),
        ((1, 2), True),
        ((2, 1), False),
        ((1, 1, 2), True),
        ((1, 2, 1, 2), False),
        ((1, 1, 2, 1, 2), True),
        ((1, 2, 2), True),
    ],
)
def test_is_lyndon(word, expected):
    assert is_lyndon(word) is expected


def test_superletter_bracketing(generic_q_params):
    p = generic_q_params
    field = p.field
    x1 = GradedElement.generator(field, 1)
    x2 = GradedElement.generator(field, 2)
    assert shirshov_superletter((1,), p) == x1
    # [x1 x2] = x1 x2 - q12 x2 x1
    assert shirshov_superletter((1, 2), p) == x1 * x2 - (x2 * x1).scale(p.q12)
    with pytest.raises(NotLyndon):
        shirshov_superletter((2, 1), p)


def test_json_round_trip(F9, rng):
    for _ in range(5):
        x = _random_element(F9, rng)
        data = x.to_json()
        assert set(data.keys()) == {"terms"}
        for term in data["terms"]:
            assert set(term.keys()) == {"word", "coeff"}
            assert isinstance(term["coeff"], str)
        assert element_from_json(F9, data) == x


def test_equality_requires_same_field(QQ, F5):
    a = GradedElement.generator(QQ, 1)
    b = GradedElement.generator(F5, 1)
    assert a != b


def test_derivation_drops_multidegree(generic_q_params, rng):
    p = generic_q_params
    field = p.field
    for _ in range(10):
        word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(2, 6)))
        x = GradedElement.from_word(field, word)
        a, b = multidegree(word)
        d1 = skew_derive(1, x, p)
        d2 = skew_derive(2, x, p)
        if d1:
            assert d1.degree() == (a - 1, b)
        if d2:
            assert d2.degree() == (a, b - 1)


def test_d1_of_ad_power(generic_q_params, f9_params, rng):
    # d_1((ad x1)^m y) = q^m (ad x1)^m(d_1 y)
    #   + (m)_q (1 - q^{m-1} chi(a1, a) chi(a, a1)) (ad x1)^{m-1}(y)
    from nichols.qcalc import q_int

    for p in (generic_q_params, f9_params):
        field = p.field
        for _ in range(8):
            word = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(1, 4)))
            y = GradedElement.from_word(field, word)
            alpha = multidegree(word)
            cross = chi(ALPHA1, alpha, p) * chi(alpha, ALPHA1, p)
            for m in range(1, 4):
                lhs = skew_derive(1, ad_x1_pow(m, y, p), p)
                rhs = ad_x1_pow(m, skew_derive(1, y, p), p).scale(p.q ** m)
                coeff = q_int(m, p.q) * (field.one - p.q ** (m - 1) * cross)
                rhs = rhs + ad_x1_pow(m - 1, y, p).scale(coeff)
                assert lhs == rhs
