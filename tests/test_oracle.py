"""Quantum symmetrizer oracle and the kernel reports it produces."""

import pytest

from nichols.braided import GradedElement
from nichols.errors import (
    DegreeCeilingExceeded,
    FieldMismatch,
    NonHomogeneous,
    OutOfRange,
)
from nichols import oracle
from nichols.fields import parse_field_spec
from nichols.oracle import (
    braiding_c,
    in_kernel,
    in_kernel_by_derivations,
    ker_cap_Um,
    nichols_dim,
    symmetrizer,
    verify_levels,
    verify_main,
    words_of_multidegree,
)
from nichols.qcalc import BraidingParams, first_equation, qfact_b
from nichols.rootvec import UhatBasisVector, p_k, u_k
from word_oracles import _phi, _phis, composite, mat_vec, naive_symmetrizer


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
        x = GradedElement.from_word(field, word, field.random_nonzero(rng))
        lhs = braiding_c(1, braiding_c(2, braiding_c(1, x, p), p), p)
        rhs = braiding_c(2, braiding_c(1, braiding_c(2, x, p), p), p)
        assert lhs == rhs


def test_symmetrizer_degree_one_is_identity(generic_q_params):
    s = symmetrizer((1, 0), generic_q_params)
    assert s.matrix == ((generic_q_params.field.one,),)


def test_symmetrizer_two_letters(generic_q_params):
    p = generic_q_params
    field = p.field
    s = symmetrizer((1, 1), p)
    assert s.basis == ((1, 2), (2, 1))
    # S_2 = id + c: S(x1x2) = x1x2 + q12 x2x1, S(x2x1) = x2x1 + q21 x1x2
    assert s.matrix == ((field.one, p.q21), (p.q12, field.one))
    d = symmetrizer((0, 2), p)
    assert d.matrix == ((field.one + p.q22,),)


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


@pytest.mark.parametrize("md", [(2, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_recursive_matches_naive(md, generic_q_params, f9_params, extension_points):
    for p in (generic_q_params, f9_params, *extension_points):
        assert symmetrizer(md, p).matrix == naive_symmetrizer(md, p).matrix


@pytest.mark.parametrize("md", [(3, 2), (2, 2), (1, 0)])
def test_apply_matches_dense_matvec(md, generic_q_params, f9_params, extension_points, rng):
    for p in (generic_q_params, f9_params, *extension_points):
        field = p.field
        sym = symmetrizer(md, p)
        for _ in range(4):
            # about half the terms of x are zero, so apply sees nnz(x) < N
            vec = [field.random_element(rng) if rng.random() < 0.5 else field.zero
                   for _ in sym.basis]
            x = GradedElement(field, dict(zip(sym.basis, vec)))
            rows = [[field.payload(e) for e in row] for row in sym.matrix]
            expected = mat_vec(field, rows, [field.payload(c) for c in vec])
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


def test_membership_rejects_mismatched_fields(generic_q_params, F5):
    x = GradedElement.from_word(F5, (1, 2))
    with pytest.raises(FieldMismatch):
        in_kernel(x, generic_q_params)
    with pytest.raises(FieldMismatch):
        in_kernel_by_derivations(x, generic_q_params)


def test_in_kernel_x2_squared(QQ, make_params):
    p = make_params(QQ, 2, 3, -1)
    x22 = GradedElement.from_word(QQ, (2, 2))
    assert in_kernel(x22, p)
    assert in_kernel_by_derivations(x22, p)
    generic = make_params(QQ, 2, 3, 5)
    assert not in_kernel(x22, generic)
    assert not in_kernel_by_derivations(x22, generic)


def test_p_k_kernel_membership_tracks_first_equation(F5, make_params, rng):
    for _ in range(6):
        q = F5.random_nonzero(rng)
        r = F5.random_nonzero(rng)
        s = F5.random_nonzero(rng)
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
            x = x + GradedElement.from_word(F7, word, F7.random_element(rng))
        assert in_kernel(x, p) == in_kernel_by_derivations(x, p)


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
                    combo = combo + v.scale(field.random_element(rng))
                vectors.append(combo)
            for _ in range(3):
                coords = tuple(field.random_element(rng) for _ in range(m + 1))
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
    walk = oracle.ad_pow_coords  # P_0 is the one candidate that starts at level 0
    monkeypatch.setattr(oracle, "ad_pow_coords",
                        lambda t, v, params: first if v.m == 0 else walk(t, v, params))
    report = verify_main(3, p)
    assert not in_kernel(first.to_words(), p)
    assert report.candidates[0] == ("adP(3,0)", False)
    assert not report.matches_theorem


def test_verify_levels_matches_each_level_alone(QQ, F5, f9_params, char3_params,
                                               make_params):
    # one walk over 0..M, with J classified up to M and Phi grown level by
    # level, reports what each level checked alone (J up to m, Phi_m) does
    points = [(f9_params, 8), (char3_params, 8), (make_params(QQ, 2, 3, -1), 10)]
    points += [(make_params(F5, q, r, -1), 8) for q in (1, 2) for r in (1, 3, 4)]
    for p, bound in points:
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
