"""Root vectors u_k, the elements P_k / S(k,t) / L_n, and d_1-solving in U_m."""

import pytest

from nichols.braided import GradedElement, ad_x1_pow, shirshov_superletter, skew_derive
from nichols.errors import HypothesisViolated, NotInJ2, OutOfRange, SolvabilityViolated
from nichols.fields import parse_field_spec
from nichols.linalg import solve
from nichols.oracle import in_kernel
from nichols.qcalc import BraidingParams, first_equation, qfact_b
from nichols.rootvec import (
    UhatBasisVector,
    ad_p_closed_form,
    ad_pow_coords,
    d1_on_um,
    d2_on_um,
    l_n,
    p_k,
    s_kt,
    solvability_scalar,
    solve_d1,
    u_hat_k,
    u_k,
    uhat_coords,
    uhat_pair_words,
)


def test_u0_u1_shapes(generic_q_params):
    p = generic_q_params
    field = p.field
    x1 = GradedElement.generator(field, 1)
    x2 = GradedElement.generator(field, 2)
    assert u_k(0, p) == x2
    assert u_k(1, p) == x1 * x2 - (x2 * x1).scale(p.q12)


@pytest.mark.parametrize("k", range(6))
def test_u_k_is_iterated_bracket(k, generic_q_params):
    p = generic_q_params
    x2 = GradedElement.generator(p.field, 2)
    assert u_k(k, p) == ad_x1_pow(k, x2, p)


@pytest.mark.parametrize("k", range(1, 6))
def test_u_k_is_lyndon_superletter(k, generic_q_params):
    assert u_k(k, generic_q_params) == shirshov_superletter((1,) * k + (2,), generic_q_params)


def test_u_hat_normalization(generic_q_params):
    p = generic_q_params
    for k in range(5):
        assert u_hat_k(k, p) == u_k(k, p).scale(qfact_b(k, p).inv())


def test_u_hat_vanishing_factor(char3_params):
    # q = 1 in characteristic 3: (3)_q^! = 6 = 0, so u_hat_3 is defined as 0
    assert not qfact_b(3, char3_params)
    assert u_hat_k(3, char3_params).is_zero()


def test_basis_vector_level_bookkeeping(generic_q_params):
    p = generic_q_params
    field = p.field
    v = UhatBasisVector.from_coords(p, (field.one, field.zero, field.from_int(2)))
    assert v.m == 2
    assert (v + v).coords == tuple(c + c for c in v.coords)
    assert v.scale(3).coords[2] == field.from_int(6)
    with pytest.raises(ValueError):
        UhatBasisVector(p, 1, (field.one,))


def test_basis_vector_requires_hypothesis(char3_params):
    with pytest.raises(HypothesisViolated):
        UhatBasisVector.zero(char3_params, 3)


def test_p_k_coordinates(generic_q_params):
    p = generic_q_params
    field = p.field
    q = p.q
    assert p_k(0, p).coords == (field.one,)
    assert p_k(2, p).coords == (field.one, field.one, q)
    assert p_k(3, p).coords == (field.one, field.one, q, q**3)


def test_s_kt_coordinates(generic_q_params):
    p = generic_q_params
    field = p.field
    q = p.q
    assert s_kt(2, 0, p).coords == p_k(2, p).coords
    # S(2,1): zero below the shift, then q-binomials (1)_q, (2)_q
    assert s_kt(2, 1, p).coords == (field.zero, field.one, field.one + q)
    assert s_kt(2, 2, p).coords == (field.zero, field.zero, field.one)
    with pytest.raises(OutOfRange):
        s_kt(2, 3, p)
    with pytest.raises(OutOfRange):
        s_kt(2, -1, p)


def test_d2_on_p_k_matches_first_equation(QQ, F5, F7, make_params):
    # d_2 kills P_k exactly when q^(k(k-1)/2) (-r)^k s = -1
    for field, triples in (
        (QQ, [(2, 3, 5), (2, 3, -1), (1, 1, -1)]),
        (F5, [(2, 3, 4), (3, 3, 3)]),
        (F7, [(2, 5, 6), (3, 2, 1)]),
    ):
        for qv, rv, sv in triples:
            p = make_params(field, qv, rv, sv)
            for k in range(5):
                if not qfact_b(k, p):
                    continue
                vanishes = not d2_on_um(p_k(k, p))
                assert vanishes == first_equation(k, p)


def test_coordinate_derivations_match_word_level(generic_q_params, F7, F9, rng):
    n7, e9 = F7.from_int, F9.parse
    points = [
        generic_q_params,
        # q21 != 1, and (4)_q^! b_4 != 0 at each point
        BraidingParams(n7(1), n7(2), n7(3), n7(6)),
        BraidingParams(n7(3), n7(1), n7(2), n7(4)),
        BraidingParams(e9("1+t"), e9("t"), e9("t"), e9("2")),
    ]
    for p in points:
        field = p.field
        for m in range(1, 5):
            v = UhatBasisVector.from_coords(
                p, tuple(field.random_element(rng) for _ in range(m + 1))
            )
            word_form = v.to_words()
            d1 = skew_derive(1, word_form, p)
            d2 = skew_derive(2, word_form, p)
            assert d1 == d1_on_um(v).to_words()
            # d_2 lands on the single line spanned by u_hat_m
            assert d2 == u_hat_k(m, p).scale(d2_on_um(v))


def test_solve_d1_round_trip(generic_q_params, rng):
    p = generic_q_params
    field = p.field
    for m in range(1, 5):
        # an interior element (zero first and last coordinate) of U_m
        coords = [field.zero] + [field.random_element(rng) for _ in range(m - 1)] + [field.zero]
        v = UhatBasisVector.from_coords(p, tuple(coords))
        w = d1_on_um(v).scale(-p.q21.inv())
        assert not solvability_scalar(w)
        assert solve_d1(w).coords == v.coords


def test_solve_d1_rejects_unsolvable(generic_q_params):
    p = generic_q_params
    field = p.field
    w = UhatBasisVector.from_coords(p, (field.one, field.zero))
    if solvability_scalar(w):
        with pytest.raises(SolvabilityViolated):
            solve_d1(w)


def test_uhat_coords_round_trip(generic_q_params, rng):
    p = generic_q_params
    field = p.field
    for m in range(4):
        v = UhatBasisVector.from_coords(
            p, tuple(field.random_element(rng) for _ in range(m + 1))
        )
        x = v.to_words()
        back = uhat_coords(x, m, p)
        assert back.coords == v.coords
        # independent route: a dense solve against the expanded basis
        words = sorted({w for i in range(m + 1) for w in uhat_pair_words(i, m, p).terms})
        matrix = [
            [field.payload(uhat_pair_words(i, m, p).coeff(w)) for i in range(m + 1)]
            for w in words
        ]
        dense = solve(field, matrix, [field.payload(x.coeff(w)) for w in words])
        assert tuple(dense) == tuple(field.payload(c) for c in back.coords)


def test_uhat_coords_rejects_outsiders(generic_q_params):
    p = generic_q_params
    stray = GradedElement.from_word(p.field, (2, 1, 2))
    with pytest.raises(ValueError):
        uhat_coords(stray, 1, p)


@pytest.mark.parametrize("m,k", [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (3, 0)])
def test_closed_form_matches_word_level(m, k, generic_q_params):
    p = generic_q_params
    lhs = ad_p_closed_form(m, k, p).to_words()
    rhs = ad_x1_pow(m, p_k(k, p).to_words(), p).scale(p.q12 ** (-m))
    assert lhs == rhs


def test_closed_form_random_fields(F5, F7, make_params, rng):
    for field in (F5, F7):
        for _ in range(10):
            qv = field.random_nonzero(rng)
            rv = field.random_nonzero(rng)
            sv = field.random_nonzero(rng)
            p = make_params(field, str(qv), str(rv), str(sv))
            for m, k in ((1, 0), (2, 1), (1, 2)):
                if not (qfact_b(k, p) and qfact_b(k + m, p)):
                    continue
                lhs = ad_p_closed_form(m, k, p).to_words()
                rhs = ad_x1_pow(m, p_k(k, p).to_words(), p).scale(p.q12 ** (-m))
                assert lhs == rhs


# braiding matrices (q11, q12, q21, q22) with (6)_q^! b_6 != 0, one with
# q21 = 1 and one without per field
WALK_POINTS = [
    ("Q", ("2", "3", "1", "5")),
    ("Q", ("2", "3", "7", "5")),
    ("Fp:7", ("1", "3", "1", "2")),
    ("Fp:7", ("1", "1", "3", "2")),
    ("ext:Fp:3:1,0,1", ("1+t", "2*t", "1", "2")),
    ("ext:Fp:3:1,0,1", ("1+t", "t", "1+2*t", "2")),
    ("ext:Fp:5:2,0,1", ("t", "1+t", "1", "2")),
    ("ext:Fp:5:2,0,1", ("t", "t", "1+t", "2")),
]


@pytest.mark.parametrize("spec, entries", WALK_POINTS)
def test_closed_form_matches_walk(spec, entries):
    # the paper's closed formula against ad_pow_coords walking up from P_k
    field = parse_field_spec(spec)
    p = BraidingParams(*(field.parse(e) for e in entries))
    assert qfact_b(6, p)
    for m in range(7):
        for k in range(7 - m):
            walked = ad_pow_coords(m, p_k(k, p), p)
            assert ad_p_closed_form(m, k, p).scale(p.q12**m).coords == walked.coords


# explicit braiding matrices (q11, q12, q21, q22) with q21 != 1; the
# hypothesis (n)_q^! b_n != 0 holds for every n <= 5 at each of them
AD_POW_POINTS = {
    "Q": ("Q", ("2", "3", "5", "7")),
    "F7": ("Fp:7", ("3", "2", "5", "6")),
    "F9": ("ext:Fp:3:1,0,1", ("t+1", "2", "t", "2*t+1")),
}


@pytest.mark.parametrize("t", range(4))
@pytest.mark.parametrize("point", sorted(AD_POW_POINTS))
def test_ad_pow_coords_matches_words(point, t, rng):
    # the coordinate recurrence against word-level brackets
    spec, entries = AD_POW_POINTS[point]
    field = parse_field_spec(spec)
    p = BraidingParams(*(field.parse(e) for e in entries))
    assert p.q21 != field.one
    for m in range(3):
        assert qfact_b(m + t, p)
        for _ in range(3):
            v = UhatBasisVector.from_coords(
                p, tuple(field.random_element(rng) for _ in range(m + 1))
            )
            lifted = ad_pow_coords(t, v, p)
            assert lifted.m == m + t
            assert lifted.to_words() == ad_x1_pow(t, v.to_words(), p)


def test_ad_pow_coords_requires_target_level(char3_params):
    # (3)_q^! = 0 at q = 1 in characteristic 3: level 2 exists, level 3 does not
    with pytest.raises(HypothesisViolated):
        ad_pow_coords(1, p_k(2, char3_params), char3_params)


def test_l3_in_char3_example(f9_params):
    # over F_9 with q = r = t, s = -1: 3 is a J2 member with witness 0 and
    # L_3 has coordinates (0, 2, 1, 0)
    field = f9_params.field
    v = l_n(3, f9_params, 0)
    assert v.coords == (field.zero, field.from_int(2), field.one, field.zero)
    assert not d2_on_um(v)
    assert in_kernel(v.to_words(), f9_params)


def test_l_n_rejects_non_j2(generic_q_params):
    with pytest.raises(NotInJ2):
        l_n(2, generic_q_params, 0)


def test_l_n_reads_a_passed_classification(f9_params):
    # J classified past n serves l_n as well as J classified up to n
    from nichols.jset import compute_J

    p = f9_params
    assert l_n(3, p, 0, compute_J(6, p)) == l_n(3, p, 0)
    with pytest.raises(NotInJ2):
        l_n(3, p, 0, compute_J(2, p))  # a bound below n has no entry for n
    with pytest.raises(NotInJ2):
        l_n(3, p, 1, compute_J(6, p))


def test_l_n_defining_equation(f9_params):
    # -q21^{-1} d1(L_3) must equal (ad x1)^2(P_0) at the word level
    p = f9_params
    v = l_n(3, p, 0)
    lhs = skew_derive(1, v.to_words(), p).scale(-p.q21.inv())
    rhs = ad_x1_pow(2, p_k(0, p).to_words(), p)
    assert lhs == rhs


def test_uhat_pair_words_shape(generic_q_params):
    p = generic_q_params
    x = uhat_pair_words(1, 2, p)
    assert x.degree() == (2, 2)
    assert x == (u_hat_k(1, p) * u_hat_k(1, p)).scale(-p.q21)


def test_ad_x1_injective_on_um(generic_q_params, F5, make_params):
    # Word-level check: the images of the (-q21)^i u^_i u^_(m-i) basis under
    # ad x1 stay linearly independent whenever the U_(m+1) basis is defined.
    from nichols.linalg import rank
    from nichols.oracle import words_of_multidegree

    param_sets = [generic_q_params, make_params(F5, 2, 3, 4), make_params(F5, 3, 2, 1)]
    for p in param_sets:
        for m in range(4):
            if not qfact_b(m + 1, p):
                continue
            words = words_of_multidegree(m + 1, 2)
            rows = []
            for i in range(m + 1):
                image = ad_x1_pow(1, uhat_pair_words(i, m, p), p)
                rows.append([p.field.payload(image.coeff(w)) for w in words])
            assert rank(p.field, rows) == m + 1


def test_solvability_tracks_q2(F5, F7, F9):
    # For n with (n)_q^! b_n != 0 and a qualifying j in J1 (j < n and
    # q^(n+j-1) r^2 = 1), the d1-equation for (ad x1)^(n-j-1)(P_j) is
    # solvable exactly when Q2^(j, n-j-1) vanishes, and that happens
    # exactly when n lands in J2.
    from nichols.jset import compute_J
    from nichols.qcalc import BraidingParams
    from word_oracles import q2_eval

    solvable_hits = 0
    for field in (F5, F7, F9):
        units = list(field.units())  # all 8 units of F_9, not only the powers of t
        for q in units:
            for r in units:
                for s in units:
                    p = BraidingParams.from_qrs(q, r, s)
                    cls = compute_J(8, p)
                    j1 = [e.j for e in cls.members if e.cls == "J1"]
                    j2 = {e.j: e.witness for e in cls.members if e.cls == "J2"}
                    for n in range(2, 9):
                        if not qfact_b(n, p):
                            continue
                        for j in j1:
                            if j >= n or q ** (n + j - 1) * r**2 != field.one:
                                continue
                            m = n - j - 1
                            scalar = solvability_scalar(
                                ad_p_closed_form(m, j, p).scale(p.q12**m)
                            )
                            q2 = q2_eval(j, m, p)
                            assert (not scalar) == (not q2)
                            if n in j2 and j2[n] == j:
                                assert not scalar
                                solvable_hits += 1
                            elif n not in j2:
                                assert scalar
    assert solvable_hits >= 5
