"""Quantum symmetrizer oracle and the kernel reports it produces."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nichols.braided import ALPHA2, GradedElement, _at_q22, _derive, chi, multidegree, skew_derive
from nichols.errors import (
    DegreeCeilingExceeded,
    FieldMismatch,
    NonHomogeneous,
    OutOfRange,
)
from nichols import linalg, oracle, rootvec
from nichols.fields import FieldElement, parse_field_spec
from nichols.jset import compute_J
from nichols.oracle import (
    _kernel_points,
    _kernel_points_by_derivations,
    in_kernel,
    in_kernel_by_derivations,
    ker_cap_Um,
    nichols_dim,
    symmetrizer,
    verify_levels,
    verify_main,
    words_of_multidegree,
)
from nichols.qcalc import BraidingParams, qfact_b
from nichols.rootvec import UhatBasisVector, ad_pow_coords, l_n, level_elements, p_k, u_k
from conftest import mask_points, random_element, verify_each_point
from word_oracles import (
    _phi,
    _phis,
    braiding_c,
    composite,
    derivations_vanish_by_elements,
    first_equation,
    mat_vec,
    naive_symmetrizer,
    sym_matrix,
)


def test_words_of_multidegree():
    assert words_of_multidegree(2, 1) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert words_of_multidegree(0, 0) == [()]
    assert len(words_of_multidegree(3, 2)) == 10
    with pytest.raises(OutOfRange):
        words_of_multidegree(-1, 2)
    with pytest.raises(DegreeCeilingExceeded):
        words_of_multidegree(10, 5)


def test_braiding_c_on_words(generic_q_params):
    p = generic_q_params
    field = p.field
    w = GradedElement.from_word(field, (1, 2, 1))
    # swap positions 1,2: x1 x2 -> q11... c acts as q_{ij} swap of letters i,j
    assert braiding_c(1, w, p) == GradedElement.from_word(field, (2, 1, 1), p.q12)
    assert braiding_c(2, w, p) == GradedElement.from_word(field, (1, 1, 2), p.q21)
    with pytest.raises(OutOfRange):
        braiding_c(3, w, p)


def test_braid_relation(generic_q_params, rng):
    # c_1 c_2 c_1 = c_2 c_1 c_2 on three letters (Yang-Baxter)
    p = generic_q_params
    field = p.field
    for _ in range(8):
        word = tuple(rng.choice((1, 2)) for _ in range(3))
        x = GradedElement.from_word(field, word, random_element(field, rng, nonzero=True))
        lhs = braiding_c(1, braiding_c(2, braiding_c(1, x, p), p), p)
        rhs = braiding_c(2, braiding_c(1, braiding_c(2, x, p), p), p)
        assert lhs == rhs


def test_symmetrizer_degree_one_is_identity(generic_q_params):
    s = symmetrizer((1, 0), generic_q_params)
    assert sym_matrix(s) == ((generic_q_params.field.one,),)


def test_symmetrizer_two_letters(generic_q_params):
    p = generic_q_params
    field = p.field
    s = symmetrizer((1, 1), p)
    assert s.basis == ((1, 2), (2, 1))
    # S_2 = id + c: S(x1x2) = x1x2 + q12 x2x1, S(x2x1) = x2x1 + q21 x1x2
    assert sym_matrix(s) == ((field.one, p.q21), (p.q12, field.one))
    d = symmetrizer((0, 2), p)
    assert sym_matrix(d) == ((field.one + p.q22,),)


def test_symmetrizer_apply(generic_q_params):
    p = generic_q_params
    field = p.field
    x = GradedElement.from_word(field, (1, 2))
    out = symmetrizer((1, 1), p).apply(x)
    expected = GradedElement.from_word(field, (1, 2)) + GradedElement.from_word(
        field, (2, 1), p.q12
    )
    assert out == expected


@pytest.fixture
def extension_points(make_params):
    f25 = parse_field_spec("ext:Fp:5:2,0,1")
    f16 = parse_field_spec("ext:Fp:2:1,1,0,0,1")
    return [make_params(f25, "t", "1+t", "2"), make_params(f16, "t", "t^2+1", "t^3")]


# (1, 0) and (0, 1) are the identity, (3, 0) and (0, 2) have one lift, and
# (4, 2) is the level-4 multidegree of scan --check oracles
@pytest.mark.parametrize("md", [(2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                (1, 0), (0, 1), (3, 0), (0, 2), (4, 2)])
def test_recursive_matches_naive(md, generic_q_params, f9_params, extension_points):
    for p in (generic_q_params, f9_params, *extension_points):
        assert symmetrizer(md, p).columns == naive_symmetrizer(md, p).columns


@pytest.mark.parametrize("md", [(3, 2), (2, 2), (1, 0)])
def test_apply_matches_dense_matvec(md, generic_q_params, f9_params, extension_points, rng):
    for p in (generic_q_params, f9_params, *extension_points):
        field = p.field
        sym = symmetrizer(md, p)
        for _ in range(4):
            # about half the terms of x are zero, so apply sees nnz(x) < N
            vec = [random_element(field, rng) if rng.random() < 0.5 else field.zero
                   for _ in sym.basis]
            x = GradedElement(field, dict(zip(sym.basis, vec)))
            expected = mat_vec(field, list(zip(*sym.columns)), [field.payload(c) for c in vec])
            assert [field.payload(sym.apply(x).coeff(w)) for w in sym.basis] == expected


def test_nichols_dim_generic(generic_q_params):
    # at a generic rational point the word spaces are injectively symmetrized
    assert nichols_dim((2, 2), generic_q_params) == 6
    assert nichols_dim((1, 1), generic_q_params) == 2
    assert nichols_dim((0, 0), generic_q_params) == 1


def test_nichols_dim_degenerate(QQ, make_params):
    # s = -1 kills x2^2: dim B(V)_(0,2) = 0
    p = make_params(QQ, 2, 3, -1)
    assert nichols_dim((0, 2), p) == 0
    assert nichols_dim((1, 1), p) == 2


def test_in_kernel_requires_homogeneous(generic_q_params):
    field = generic_q_params.field
    x = GradedElement.generator(field, 1) + GradedElement.from_word(field, (1, 2))
    with pytest.raises(NonHomogeneous):
        in_kernel(x, generic_q_params)
    assert in_kernel(GradedElement.zero(field), generic_q_params)


def test_membership_rejects_mismatched_fields(generic_q_params, F5, F7, make_params):
    x = GradedElement.from_word(F5, (1, 2))
    with pytest.raises(FieldMismatch):
        in_kernel(x, generic_q_params)
    with pytest.raises(FieldMismatch):
        symmetrizer((1, 1), generic_q_params).apply(x)
    with pytest.raises(FieldMismatch):
        in_kernel_by_derivations(x, generic_q_params)
    # both oracles check the field first, then homogeneity, then the ceiling:
    # a zero over another field and a word past DEGREE_CEILING were each
    # refused by one oracle and answered by the other
    point = make_params(F5, 2, 3, 4)
    long_word = GradedElement.from_word(F5, (1,) * (oracle.DEGREE_CEILING + 1))
    for member in (in_kernel, in_kernel_by_derivations):
        with pytest.raises(FieldMismatch):
            member(GradedElement.zero(F7), point)
        with pytest.raises(DegreeCeilingExceeded):
            member(long_word, point)


def _verdicts(route, elements, points) -> list:
    """A pair route at points of one (q, r) pair, the first point and the s
    payloads of all, each bitmask read as the set of its points."""
    masks = route(elements, points[0], tuple(p.s.value for p in points))
    return [mask_points(mask, points) for mask in masks]


def test_in_kernel_x2_squared(QQ, F5, make_params):
    # s = -1 kills x2^2 and a generic s does not.  Derivation verdicts are
    # shared across the points of a pair, so the two points, in either
    # order, must not read each other's verdict, and a unit multiple shares
    # the verdict.
    for field in (QQ, F5):
        x22 = GradedElement.from_word(field, (2, 2))
        kernel_point = make_params(field, 2, 3, -1)
        generic = make_params(field, 2, 3, 2)
        for order in ((kernel_point, generic), (generic, kernel_point)):
            pair = [x22, x22.scale(3)]
            assert _verdicts(_kernel_points, pair, order) == [{kernel_point}] * 2
            assert _verdicts(_kernel_points_by_derivations, pair, order) == [{kernel_point}] * 2
            for p in order:
                expected = p is kernel_point
                for x in pair:
                    assert in_kernel(x, p) == expected
                    assert in_kernel_by_derivations(x, p) == expected


def test_p_k_kernel_membership_tracks_first_equation(F5, make_params, rng):
    for _ in range(6):
        q = random_element(F5, rng, nonzero=True)
        r = random_element(F5, rng, nonzero=True)
        s = random_element(F5, rng, nonzero=True)
        p = make_params(F5, str(q), str(r), str(s))
        for k in range(4):
            if not qfact_b(k, p):
                continue
            words = p_k(k, p).to_words()
            assert in_kernel(words, p) == first_equation(k, p)


def test_u_k_never_in_kernel_when_normalizable(generic_q_params):
    # (k)_q^! b_k != 0 forces u_k != 0 in the Nichols algebra
    for k in range(5):
        assert not in_kernel(u_k(k, generic_q_params), generic_q_params)


def test_oracles_agree_on_randoms(F7, make_params, rng):
    p = make_params(F7, 2, 3, 6)
    for _ in range(30):
        a = rng.randrange(0, 4)
        b = rng.randrange(0, 3)
        if a + b == 0:
            continue
        x = GradedElement.zero(F7)
        for word in words_of_multidegree(a, b):
            x = x + GradedElement.from_word(F7, word, random_element(F7, rng))
        assert in_kernel(x, p) == in_kernel_by_derivations(x, p)


def _random_homogeneous(field, rng, count):
    """Random nonzero homogeneous elements of total degree 1..5."""
    out = []
    while len(out) < count:
        a, b = rng.randrange(0, 4), rng.randrange(0, 3)
        if a + b == 0:
            continue
        terms = {w: random_element(field, rng) for w in words_of_multidegree(a, b)
                 if rng.random() < 0.6}
        x = GradedElement(field, terms)
        if not x.is_zero():
            out.append(x)
    return out


def _kernel_elements(field, p):
    """Elements of ker(pi): a basis of ker(pi) ∩ U_m for m <= 3, and x2^2 at s = -1."""
    out = [GradedElement.from_word(field, (2, 2))] if p.s == -field.one else []
    for m in range(4):
        if qfact_b(m, p):
            out += [v.to_words() for v in ker_cap_Um(m, p)[1]]
    return out


@pytest.fixture
def membership_points(F7, f9_params, char3_params, QQ, make_params, extension_points):
    return [make_params(F7, 2, 3, 6), f9_params, char3_params,
            make_params(QQ, 2, 3, -1), *extension_points]


def test_in_kernel_matches_the_applied_symmetrizer(membership_points, rng):
    # the row products stop at the first nonzero entry; S(x) from apply is
    # the full product, and the two verdicts agree on and off the kernel
    found = 0
    for p in membership_points:
        field = p.field
        kernel = _kernel_elements(field, p)
        found += len(kernel)
        for x in kernel:
            assert in_kernel(x, p)
            assert symmetrizer(x.degree(), p).apply(x).is_zero()
        for x in _random_homogeneous(field, rng, 12):
            assert in_kernel(x, p) == symmetrizer(x.degree(), p).apply(x).is_zero()
    assert found >= 4


def test_derivation_verdicts_match_the_element_recursion(membership_points, rng):
    # the shared verdicts derive payload terms; the oracle derives elements
    # through skew_derive with no shared verdicts
    for p in membership_points:
        field = p.field
        memo: dict = {}
        for x in _kernel_elements(field, p) + _random_homogeneous(field, rng, 12):
            expected = derivations_vanish_by_elements(x, p)
            mask = oracle._derivations_vanish(x.terms, p, (p.s.value,), memo)
            assert mask == (1 if expected else 0)
            assert in_kernel_by_derivations(x, p) == expected


PAIR_FIELDS = {spec: parse_field_spec(spec) for spec in
               ("Fp:2", "Fp:5", "Fp:7", "ext:Fp:2:1,1,1", "ext:Fp:3:1,0,1", "ext:Fp:5:2,0,1")}
# naive_symmetrizer takes about 0.1 s per point at total degree 6 and 1 s at 7
NAIVE_DEGREE = 5


@pytest.mark.parametrize("spec", list(PAIR_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pair_routes_match_the_per_point_routes(spec, data):
    # each pair route decides every s of a (q, r) at once; its verdict set
    # must be the set of points where a per-point route says "in ker(pi)":
    # in_kernel for the symmetrizer route, and the naive sum over T_sigma
    # for the derivation route (in_kernel above NAIVE_DEGREE)
    field = PAIR_FIELDS[spec]
    units = list(field.units())
    q, r = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    points = tuple(BraidingParams.from_qrs(q, r, s) for s in units)
    elements = list(level_elements(data.draw(st.integers(0, 5)), points[0]) or ())
    words = words_of_multidegree(data.draw(st.integers(0, 5)), data.draw(st.integers(0, 2)))
    coeffs = data.draw(st.lists(st.sampled_from([field.zero, *units]),
                                min_size=len(words), max_size=len(words)))
    elements.append(GradedElement(field, dict(zip(words, coeffs))))
    naive: dict = {}
    for x, by_symmetrizer, by_derivations in zip(
        elements, _verdicts(_kernel_points, elements, points),
        _verdicts(_kernel_points_by_derivations, elements, points)
    ):
        expected = {p for p in points if in_kernel(x, p)}
        assert by_symmetrizer == expected
        if not x.is_zero() and sum(x.degree()) <= NAIVE_DEGREE:
            for p in points:
                if (x.degree(), p) not in naive:
                    naive[x.degree(), p] = naive_symmetrizer(x.degree(), p)
            expected = {p for p in points if naive[x.degree(), p].apply(x).is_zero()}
        assert by_derivations == expected


FORMAL_FIELDS = {spec: parse_field_spec(spec) for spec in ("Fp:5", "ext:Fp:3:1,0,1", "Q")}
# every multidegree the pencil serves up to total degree 8
PENCIL_DEGREES = [(a, b) for b in range(3) for a in range(9 - b)]


def _pair_units(field, data):
    """The units s of a drawn pair: all of them over a finite field, three over Q."""
    if field.order is not None:
        return list(field.units())
    values = st.fractions(-9, 9, max_denominator=9).filter(bool)
    drawn = data.draw(st.lists(values, min_size=3, max_size=3, unique=True))
    return [field.parse(str(v)) for v in drawn]


@pytest.mark.parametrize("spec", list(FORMAL_FIELDS))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_formal_q22_matches_the_point_builds(spec, data):
    # q22 = s stays formal once per pair: S = A + s B from one build (A alone
    # for b <= 1) must be the symmetrizer built at each s, and d_2 with q22
    # formal, read at q22, must be d_2 summed term by term at the point
    field = FORMAL_FIELDS[spec]
    units = _pair_units(field, data)
    q, r = data.draw(st.sampled_from(units)), data.draw(st.sampled_from(units))
    points = [BraidingParams.from_qrs(q, r, s) for s in units]
    add, mul = field._add, field._mul
    builds: dict = {}
    for md in PENCIL_DEGREES:
        layers = oracle._formal(md, points[0], builds)
        assert len(layers) == (2 if md[1] == 2 else 1)
        for p in points:
            s = p.q22.value
            at_s = layers[0] if len(layers) == 1 else tuple(
                tuple(add(a, mul(s, b)) for a, b in zip(col_a, col_b))
                for col_a, col_b in zip(*layers))
            assert at_s == symmetrizer(md, p).columns
        words = words_of_multidegree(*md)
        coeffs = data.draw(st.lists(st.sampled_from([field.zero, *units]),
                                    min_size=len(words), max_size=len(words)))
        x = GradedElement(field, dict(zip(words, coeffs)))
        formal = _derive(2, x.terms.items(), points[0])
        for p in points:
            expected = GradedElement.zero(field)
            for w, c in x.terms.items():
                for t, letter in enumerate(w):
                    if letter == 2:
                        scalar = chi(multidegree(w[:t]), ALPHA2, p) * FieldElement(field, c)
                        reduced = w[:t] + w[t + 1:]
                        expected = expected + GradedElement.from_word(field, reduced, scalar)
            assert _at_q22(field, formal, p.q22.value) == expected.terms
            assert skew_derive(2, x, p) == expected


def test_pair_routes_read_x2_cubed(F5, make_params):
    # x2^3 lies in ker(pi) at s = -1 = 4 only.  The derivation route serves
    # any b; the symmetrizer route's pencil S = A + s B holds for b <= 2,
    # and in_kernel serves any b.
    x = GradedElement.from_word(F5, (2, 2, 2))
    pair = (make_params(F5, 2, 3, 4), make_params(F5, 2, 3, 1))
    assert _verdicts(_kernel_points_by_derivations, [x], pair) == [{pair[0]}]
    assert in_kernel(x, pair[0]) and not in_kernel(x, pair[1])


def test_one_point_pairs_read_the_pencil(monkeypatch, make_params):
    # every (q, r) pair over Fp:2 has the one point q = r = s = 1; the
    # symmetrizer route reads it off the q22 pencil like a larger pair and
    # builds no symmetrizer at the point
    F2 = parse_field_spec("Fp:2")
    point = make_params(F2, 1, 1, 1)
    elements = [GradedElement.from_word(F2, w)
                for a in range(5) for b in range(3) for w in words_of_multidegree(a, b)]
    elements += [x for m in range(5) for x in level_elements(m, point) or ()]
    expected = [{point} if in_kernel(x, point) else set() for x in elements]
    assert set() in expected and {point} in expected

    def refuse(md, params):
        raise AssertionError(f"symmetrizer built at a point for {md}")

    monkeypatch.setattr(oracle, "symmetrizer", refuse)
    assert _verdicts(_kernel_points, elements, (point,)) == expected


def test_ker_cap_um_dimensions(f9_params, generic_q_params):
    dim, basis = ker_cap_Um(3, f9_params)
    assert dim == 2 and len(basis) == 2
    for v in basis:
        assert in_kernel(v.to_words(), f9_params)
    assert ker_cap_Um(3, generic_q_params)[0] == 0


def test_composite_matches_word_membership(
    generic_q_params, f9_params, F7, make_params, rng
):
    # C_m, the word-level oracle for Phi_m, against the word expansion plus
    # a symmetrizer apply of each vector
    f25 = parse_field_spec("ext:Fp:5:2,0,1")
    n = F7.from_int
    points = [
        generic_q_params,
        make_params(F7, 1, 2, -1),
        BraidingParams(n(1), n(4), n(3), n(6)),  # q21 != 1
        f9_params,
        make_params(f25, "t", "3", "-1"),  # 5 in J2 with witness 0
    ]
    verdicts = set()
    for p in points:
        field = p.field
        for m in range(7):
            if not qfact_b(m, p):
                continue
            composite_m = composite(m, p)
            dim, basis = ker_cap_Um(m, p)
            vectors = list(basis)
            for _ in range(2):
                combo = UhatBasisVector.zero(p, m)
                for v in basis:
                    combo = combo + v.scale(random_element(field, rng))
                vectors.append(combo)
            for _ in range(3):
                coords = tuple(random_element(field, rng) for _ in range(m + 1))
                vectors.append(UhatBasisVector(p, m, coords))
            for v in vectors:
                image = mat_vec(field, composite_m, [field.payload(c) for c in v.coords])
                verdict = all(field._is_zero(c) for c in image)
                assert verdict == in_kernel(v.to_words(), p)
                verdicts.add((verdict, v.is_zero()))
            assert verify_main(m, p).dim == dim
    assert {(True, False), (False, False)} <= verdicts


def test_phi_kernel_equals_composite_kernel(
    make_params, F3, F7, f9_params, generic_q_params
):
    # ker Phi_m = ker C_m as subspaces: equal dimension, and Phi_m kills a
    # basis of ker C_m
    from nichols.linalg import nullspace, rank

    f25 = parse_field_spec("ext:Fp:5:2,0,1")
    n3, n7 = F3.from_int, F7.from_int
    points = [
        generic_q_params,
        make_params(F7, 1, 2, -1),
        f9_params,
        make_params(f25, "t", "3", "-1"),  # 5 in J2 with witness 0
    ]
    # every F_3 triple, and every F_3 matrix with q21 = 2
    units3 = (1, 2)
    points += [make_params(F3, q, r, s) for q in units3 for r in units3 for s in units3]
    points += [
        BraidingParams(n3(a), n3(b), n3(2), n3(d))
        for a in units3
        for b in units3
        for d in units3
    ]
    # F_7 matrices with q21 != 1
    points += [
        BraidingParams(n7(a), n7(b), n7(c), n7(d))
        for a in (1, 3, 6)
        for b in (1, 2, 5)
        for c in (3, 6)
        for d in (1, 6)
    ]
    levels = nontrivial = 0
    for p in points:
        field = p.field
        for m in range(7):
            if not qfact_b(m, p):
                break
            phi, kernel = _phi(m, p), nullspace(field, composite(m, p))
            assert len(phi) == m + 1 and all(len(row) == m + 1 for row in phi)
            assert m + 1 - rank(field, phi) == len(kernel)
            for v in kernel:
                assert all(field._is_zero(c) for c in mat_vec(field, phi, v))
            levels += 1
            nontrivial += bool(kernel)
    assert levels >= 180 and nontrivial >= 100


@pytest.mark.parametrize("spec, triples, top", [
    ("Fp:3", None, 10),
    ("Fp:5", None, 10),
    ("ext:Fp:3:1,0,1", None, 10),
    # formal kernels up to dimension 21 past level 0, and a kernel at every
    # level with the hypothesis holding throughout
    ("Q", [("-1", "1", "-1"), ("1", "-1", "-1")], 40),
    ("ext:Q:-2,0,1", [("1", "t", "-1")], 20),
], ids=["Fp:3", "Fp:5", "F9", "Q", "ext:Q"])
def test_kernel_walk_spans_ker_phi(make_params, spec, triples, top):
    # span K_m = ker Phi_m at every level (None: every unit triple), and
    # ker_cap_Um is the nullspace of Phi_m exactly wherever the hypothesis holds
    from nichols.linalg import nullspace, rank

    field = parse_field_spec(spec)
    if triples is None:
        units = [str(u) for u in field.units()]
        triples = [(q, r, s) for q in units for r in units for s in units]
    levels = 0
    for qrs in triples:
        p = make_params(field, *qrs)
        walk = zip(oracle._kernels(p), _phis(p))
        for m, (kernel, phi) in zip(range(top + 1), walk):
            expected = nullspace(field, phi)
            assert rank(field, kernel) == len(kernel) == len(expected)
            for v in kernel:
                assert all(field._is_zero(c) for c in mat_vec(field, phi, v))
            if p.scalars.hypothesis(m):
                dim, basis = ker_cap_Um(m, p)
                assert dim == len(kernel)
                assert [[field.payload(c) for c in v.coords] for v in basis] == expected
                levels += 1
    assert levels > 0


def test_verify_main_flags_a_non_kernel_candidate(f9_params, monkeypatch):
    # a J1 candidate replaced by the first basis vector x2 u_hat_3 of U_3
    p = f9_params
    field = p.field
    first = UhatBasisVector(p, 3, (field.one,) + (field.zero,) * 3)
    row = [field.payload(c) for c in first.coords]
    walk = oracle._ad_x1_pow  # P_0 is the one candidate that starts at level 0
    monkeypatch.setattr(oracle, "_ad_x1_pow",
                        lambda rows, m, t, params: [row] if m == 0 else walk(rows, m, t, params))
    report = verify_main(3, p)
    assert not in_kernel(first.to_words(), p)
    assert report.candidates[0] == ("adP(3,0)", False)
    assert not report.matches_theorem


def test_verify_levels_reduces_each_kernel_once_per_level(monkeypatch):
    # one rref of K_m serves every candidate of level m, and the rows are
    # ranked only where a candidate enters (levels 0 and 5): 11 eliminations
    # for nine levels, where a rank per level took 18 and a rank of
    # K_m + [v] per candidate 22
    # the field is built first: filling its inverse table solves through rref
    field = parse_field_spec("ext:Fp:5:2,0,1")
    p = BraidingParams.from_qrs(field.parse("4+t"), field.parse("4+2*t"), field.parse("4"))
    calls = []
    rref = linalg.rref

    def counting(field, matrix):
        calls.append(len(matrix))
        return rref(field, matrix)

    monkeypatch.setattr(linalg, "rref", counting)  # rank reduces through it
    monkeypatch.setattr(oracle, "rref", counting)
    reports = list(verify_levels(range(9), p))
    assert all(rep.matches_theorem for rep in reports)
    assert [len(rep.candidates) for rep in reports] == [1] * 5 + [2] * 4
    assert len(calls) == 11


def _walk_points(QQ, F5, f9_params, char3_params, make_params):
    points = [(f9_params, 8), (char3_params, 8), (make_params(QQ, 2, 3, -1), 10)]
    return points + [(make_params(F5, q, r, -1), 8) for q in (1, 2) for r in (1, 3, 4)]


def test_verify_levels_matches_each_level_alone(QQ, F5, f9_params, char3_params,
                                               make_params):
    # one walk over 0..M, with J classified up to M and Phi grown level by
    # level, reports what each level checked alone (J up to m, Phi_m) does
    for p, bound in _walk_points(QQ, F5, f9_params, char3_params, make_params):
        reports = list(verify_levels(range(bound + 1), p))
        assert len(reports) == bound + 1
        for m, rep in enumerate(reports):
            if not qfact_b(m, p):
                assert rep is None
                continue
            assert rep.matches_theorem
            assert rep.to_json() == verify_main(m, p).to_json()
        tail = list(verify_levels(range(2, bound + 1), p))
        assert [r and r.to_json() for r in tail] == [r and r.to_json() for r in reports[2:]]


def test_verify_levels_carries_independence(QQ, F5, f9_params, char3_params,
                                           make_params):
    # the carried flag equals a fresh rank of the candidates at every level,
    # each walked up from its own level by ad_pow_coords
    f25 = parse_field_spec("ext:Fp:5:2,0,1")
    j2_point = make_params(f25, "4+t", "4+2*t", "4")
    points = _walk_points(QQ, F5, f9_params, char3_params, make_params) + [(j2_point, 9)]
    for p, bound in points:
        field = p.field
        members = compute_J(bound, p).members
        for m, rep in enumerate(verify_levels(range(bound + 1), p)):
            if rep is None:
                continue
            rows = []
            for entry in (e for e in members if e.j <= m):
                if entry.cls == "J1":
                    start = p_k(entry.j, p)
                else:
                    start = l_n(entry.j, p, entry.witness)
                rows.append([field.payload(c)
                             for c in ad_pow_coords(m - entry.j, start, p).coords])
            assert rep.independent == (linalg.rank(field, rows) == len(rows))


def test_verify_levels_carries_dependence(make_params, monkeypatch):
    # L_5 replaced by (ad x1)^5 P_0: the rows turn dependent where it enters
    # and stay so as ad x1 carries them up
    f25 = parse_field_spec("ext:Fp:5:2,0,1")
    p = make_params(f25, "4+t", "4+2*t", "4")
    monkeypatch.setattr(oracle, "l_n", lambda n, params, j_n, classification:
                        ad_pow_coords(n, p_k(0, params), params))
    reports = list(verify_levels(range(9), p))
    assert [len(rep.candidates) for rep in reports] == [1] * 5 + [2] * 4
    assert [rep.independent for rep in reports] == [True] * 5 + [False] * 4


def test_verify_levels_stops_the_walk_at_the_first_skipped_level(QQ, make_params,
                                                                 monkeypatch):
    # (m)_q^! b_m = 0 persists upwards: at q = -1, (2)_q = 0, so levels 2..40
    # are skipped and the kernel walk goes no further than level 1
    walked = []
    walk = oracle._kernels

    def counting(params):
        for m, kernel in enumerate(walk(params)):
            walked.append(m)
            yield kernel

    monkeypatch.setattr(oracle, "_kernels", counting)
    reports = list(verify_levels(range(41), make_params(QQ, -1, 2, -1)))
    assert [rep is None for rep in reports] == [False] * 2 + [True] * 39
    assert walked == [0, 1]


def test_verify_main_f9(f9_params):
    report = verify_main(3, f9_params)
    assert report.to_json() == {
        "m": 3,
        "dim": 2,
        "candidates": [
            {"label": "adP(3,0)", "in_kernel": True},
            {"label": "L(3)", "in_kernel": True},
        ],
        "independent": True,
        "matches_theorem": True,
    }


def test_verify_main_generic(generic_q_params):
    report = verify_main(4, generic_q_params)
    assert report.dim == 0
    assert report.candidates == []
    assert report.matches_theorem


def test_verify_main_char3_low_levels(char3_params):
    # hypothesis holds for m <= 2 (q=1: (3)_q^! dies first at m=3)
    for m in range(3):
        report = verify_main(m, char3_params)
        assert report.matches_theorem
    report = verify_main(2, char3_params)
    # 0 in J: exactly one kernel element at level 2
    assert report.dim == 1


def test_ad_x1_preserves_kernel(f9_params, char3_params, generic_q_params):
    # ad x1 carries ker(pi) ∩ U_m into ker(pi) ∩ U_(m+1) without collapsing
    # anything; checked at the word level so U_(m+1) needs no u_hat basis
    from nichols.braided import ad_x1_pow
    from nichols.linalg import rank

    nontrivial = 0
    for p, max_m in ((f9_params, 3), (char3_params, 2), (generic_q_params, 4)):
        for m in range(1, max_m + 1):
            if not qfact_b(m, p):
                continue
            dim, basis = ker_cap_Um(m, p)
            if dim == 0:
                continue
            nontrivial += 1
            words = words_of_multidegree(m + 1, 2)
            rows = []
            for v in basis:
                image = ad_x1_pow(1, v.to_words(), p)
                assert in_kernel(image, p)
                rows.append([p.field.payload(image.coeff(w)) for w in words])
            assert rank(p.field, rows) == dim
    assert nontrivial >= 2


def test_kernel_dim_counts_defects_at_m6(F7, QQ, make_params):
    # dim(ker(pi) ∩ U_6) equals |J ∩ [0,6]| wherever (6)_q^! b_6 != 0;
    # over F_7 only the q = 1 family survives that hypothesis
    from nichols.jset import compute_J

    points = [
        make_params(F7, q, r, s)
        for q in range(1, 7)
        for r in range(1, 7)
        for s in range(1, 7)
    ]
    points += [make_params(QQ, *t) for t in ((2, 3, 5), (2, 3, -1), (1, 2, -1))]
    checked = nontrivial = 0
    for p in points:
        if not qfact_b(6, p):
            continue
        dim, _ = ker_cap_Um(6, p)
        assert dim == len(compute_J(6, p).members)
        checked += 1
        if dim:
            nontrivial += 1
    assert checked >= 30 and nontrivial >= 10


def _hold_dim_m2_to_J(params, top: int) -> tuple:
    """Check dim B(V)_(m,2) = C(m+2, 2) - sum over j in J, j <= m, of (m - j + 1)
    at every m <= top with (m)_q^! b_m != 0; returns the number of levels
    checked and whether J2 has a member among them.

    This is a third oracle: it holds the multiplicities that J gives to a
    symmetrizer rank, with no U_m in between.  The argument: Kharchenko's
    PBW theorem holds over any field (Algebra and Logic 38, 1999).  Under
    the hypothesis at m, x1^e != 0 for e <= m, and for each k <= m there is
    a nonzero root vector y_k of degree k*alpha1 + alpha2.  A PBW monomial
    of degree (m, 2) is x1^(m-k) times one of three kinds of degree (k, 2):
      - a root vector of degree k*alpha1 + 2*alpha2, of which there are
        mult = m'(k) - |J ∩ [0, k]| (the paper's corollary);
      - a product y_i y_l with i > l and i + l = k, of which there are
        ceil(k/2);
      - y_(k/2)^2 for even k, unless y_(k/2) has height 2, that is unless
        q^(k^2/4) r^(k/2) s = -1.
    m'(k) is ceil(k/2), plus 1 for even k exactly when
    q^(k^2/4) r^(k/2) s = -1, so m' gains the 1 that the square loses.
    Each k therefore contributes k + 1 - |J ∩ [0, k]| monomials, and the sum
    over k <= m is C(m+2, 2) - sum over j in J, j <= m, of (m - j + 1).
    The hypothesis persists downwards, so the levels checked are 0..m.
    """
    checked = 0
    while checked <= top and params.scalars.hypothesis(checked):
        checked += 1
    if not checked:
        return 0, False
    classification = compute_J(checked - 1, params)
    for m in range(checked):
        expected = comb(m + 2, 2) - sum(m - j + 1 for j in classification.j_set()
                                        if j <= m)
        assert nichols_dim((m, 2), params) == expected, (params, m)
    return checked, bool(classification.j2())


def test_dim_m2_matches_J_on_every_f9_point(F9):
    # F_9 has live J2 members for m <= 6 (F_7 has none), so a J that drops
    # them fails here
    units = list(F9.units())
    levels = j2_points = 0
    for q in units:
        for r in units:
            for s in units:
                n, has_j2 = _hold_dim_m2_to_J(BraidingParams.from_qrs(q, r, s), 6)
                levels += n
                j2_points += has_j2
    assert (levels, j2_points) == (1832, 14)


@pytest.mark.parametrize("spec, q, r, s, top", [
    ("Q", "2", "3", "-1", 8),  # J = {0}
    ("Q", "2", "3", "1/3", 8),  # J = {1}
    ("Q", "2", "3", "-1/18", 8),  # J = {2}
    ("ext:Q:-2,0,1", "1+t", "3", "-1", 6),  # J = {0}
    ("ext:Fp:5:2,0,1", "4+t", "4+2*t", "4", 8),  # J = {0, 5}, 5 in J2
])
def test_dim_m2_matches_J_at_points(make_params, spec, q, r, s, top):
    params = make_params(parse_field_spec(spec), q, r, s)
    assert _hold_dim_m2_to_J(params, top)[0] == top + 1
    assert compute_J(top, params).j_set()


DIM_FIELDS = {spec: parse_field_spec(spec) for spec in
              ("Fp:3", "Fp:5", "ext:Fp:3:1,0,1", "ext:Fp:5:2,0,1", "Q", "ext:Q:-2,0,1")}


def _unit_strategy(field):
    if field.order is not None:
        return st.sampled_from(list(field.units()))
    base = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    payload = st.tuples(*[base] * field.degree) if hasattr(field, "base") else base
    return payload.map(lambda v: FieldElement(field, v)).filter(bool)


@pytest.mark.parametrize("spec", list(DIM_FIELDS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_dim_m2_matches_J_at_random_points(spec, data):
    # m <= 8 costs 2-3 s per point over Q(sqrt 2), so it stops at 6 there
    field = DIM_FIELDS[spec]
    q, r, s = (data.draw(_unit_strategy(field)) for _ in range(3))
    top = data.draw(st.integers(0, 6 if spec.startswith("ext:Q:") else 8))
    _hold_dim_m2_to_J(BraidingParams.from_qrs(q, r, s), top)


# F_4, F_9, F_25, F_27: x -> x^p is a field automorphism, so every verdict at
# (q, r, s) holds at (q^p, r^p, s^p); a wrong table entry breaks the symmetry
FROBENIUS_FIELDS = {spec: parse_field_spec(spec) for spec in
                    ("ext:Fp:2:1,1,1", "ext:Fp:3:1,0,1", "ext:Fp:5:2,0,1", "ext:Fp:3:1,2,0,1")}


@pytest.mark.parametrize("spec", list(FROBENIUS_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_frobenius_images_keep_every_verdict(spec, data):
    field = FROBENIUS_FIELDS[spec]
    units = list(field.units())
    q, r = (data.draw(st.sampled_from(units)) for _ in range(2))
    ss = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=4, unique=True))
    max_m = data.draw(st.integers(0, 6))
    frobenius = lambda x: x ** field.characteristic  # noqa: E731
    image = [frobenius(x) for x in (q, r, *ss)]
    for s, s_image in zip(ss, image[2:]):
        params = BraidingParams.from_qrs(q, r, s)
        mirror = BraidingParams.from_qrs(image[0], image[1], s_image)
        assert compute_J(max_m, mirror).to_json() == compute_J(max_m, params).to_json()
        levels = range(max_m + 1)
        reports = [rep and rep.to_json() for rep in verify_levels(levels, params)]
        assert [rep and rep.to_json() for rep in verify_levels(levels, mirror)] == reports
    # found[j] lists the disagreements at ss[j], so the lists map onto the images
    assert (oracle.compare_routes(image[0], image[1], image[2:], max_m)
            == oracle.compare_routes(q, r, ss, max_m))


# the main check's pair route against every point walked on its own
MAIN_PAIR_FIELDS = {spec: parse_field_spec(spec) for spec in (
    "Fp:2", "Fp:3", "Fp:5", "Fp:7", "ext:Fp:2:1,1,1", "ext:Fp:2:1,1,0,1", "ext:Fp:3:1,0,1",
    "ext:Fp:3:2,1,1", "ext:Fp:3:2,2,1", "ext:Fp:2:1,1,0,0,1", "ext:Fp:5:2,0,1")}


@pytest.mark.parametrize("max_m", [3, 8])
@pytest.mark.parametrize("spec", list(MAIN_PAIR_FIELDS))
def test_verify_pair_equals_the_walk_at_every_point(spec, max_m):
    units = list(MAIN_PAIR_FIELDS[spec].units())
    for q, r in itertools.product(units, repeat=2):
        assert oracle.verify_pair(q, r, units, max_m) == verify_each_point(q, r, units, max_m)


@pytest.mark.parametrize("max_m", [3, 8])
@pytest.mark.parametrize("spec", list(MAIN_PAIR_FIELDS))
def test_the_unwalked_points_have_no_defect_and_no_kernel(spec, max_m):
    # each side of _s_equation_roots is exactly the set of s where one of its
    # equations holds, read at each point; outside both, compute_J has no
    # member below top and the kernel walk yields K_m = [] below top
    field = MAIN_PAIR_FIELDS[spec]
    units = list(field.units())
    for q, r in itertools.product(units, repeat=2):
        top, j_mask, kernel_mask = oracle._s_equation_roots(
            BraidingParams.from_qrs(q, r, units[0]), units, max_m)
        j_side, kernel_side = (mask_points(mask, range(len(units)))
                               for mask in (j_mask, kernel_mask))
        for k, s in enumerate(units):
            params = BraidingParams.from_qrs(q, r, s)
            table = params.scalars.upto(max_m)
            levels = range(max_m + 1)
            assert [table.hypothesis(m) for m in levels] == [m < top for m in levels]
            assert (k in j_side) == (table.minus_one in table.sign[:top])
            rs = [s.value]  # (-r)^m s
            for _ in range(1, top):
                rs.append(field._mul(rs[-1], table.minus_r))
            cuts = [oracle._cut(field, rootvec._p_row(m, params), m, rs[m])
                    for m in range(1, top)]
            assert (k in kernel_side) == (s == -field.one or any(map(field._is_zero, cuts)))
            if k in j_side | kernel_side:
                continue
            assert [e.j for e in compute_J(max_m, params).members if e.j < top] == []
            assert list(itertools.islice(oracle._kernels(params), top)) == [[]] * top
