"""Independent routes kept as test oracles for src/: the composite matrix
C_m for the coordinate kernel, the square matrix Phi_m whose kernel the
kernel walk carries, the naive sum over S_n for the recursive symmetrizer,
the classification of J on FieldElements by the closed formulas, and the
integer polynomials Q2^{k,m} whose vanishing at a point the J2 membership
condition restates."""

from functools import lru_cache
from itertools import accumulate, count, islice
from typing import Iterator

from nichols.errors import InternalInexactDivision
from nichols.fields import FieldElement
from nichols.jset import JClassification, JEntry, _divides
from nichols.oracle import (
    SymmetrizerMatrix,
    _c_word,
    symmetrizer,
    words_of_multidegree,
)
from nichols.qcalc import BraidingParams, first_equation, j_condition
from nichols.rootvec import uhat_pair_words


def composite(m: int, params: BraidingParams) -> list:
    """C_m as payload rows: row w, column i the coefficient of the word w in
    S((-q21)^i u_hat_i u_hat_{m-i}), so S(v.to_words()) = C_m v.coords."""
    sym = symmetrizer((m, 2), params)
    rows = [[params.field._from_int(0)] * (m + 1) for _ in sym.basis]
    for i in range(m + 1):
        for w, c in sym.apply(uhat_pair_words(i, m, params)).terms.items():
            rows[sym.index[w]][i] = c
    return rows


def mat_vec(field, matrix: list, vec: list) -> list:
    add, mul = field._add, field._mul
    out = []
    for row in matrix:
        acc = field._from_int(0)
        for a, x in zip(row, vec):
            acc = add(acc, mul(a, x))
        out.append(acc)
    return out


def _phis(params: BraidingParams) -> Iterator[list]:
    """Phi_0, Phi_1, ... as payload rows: lambda in U_m lies in ker(pi) iff
    Phi_m lambda = 0.

    x is in ker(pi) iff d_1 x and d_2 x are, and d_2 x = z_m(lambda) u_hat_m
    with u_hat_m outside ker(pi) under the hypothesis.  So Phi_0 = [1 + s],
    and Phi_k is the rows of Phi_{k-1} D_k, D_k the d1 map
    mu_i = -q21 (lambda_{i+1} - q^i lambda_i) from U_k to U_{k-1}, followed
    by the d2 row z_k = lambda_0 + (-r)^k s lambda_k.  A yielded Phi is
    never modified afterwards.
    """
    field = params.field
    add, mul, neg = field._add, field._mul, field._neg
    zero, one = field._from_int(0), field._from_int(1)
    q, q21, s = params.q.value, params.q21.value, params.s.value
    minus_q21, minus_r = neg(q21), neg(params.r.value)
    rows = [[add(one, s)]]
    rs = s  # (-r)^k s
    for k in count(1):
        yield rows
        # (row D_k)_j = -q21 row_{j-1} + q21 q^j row_j, with row_{-1} = row_k = 0
        weights = list(accumulate([q21] + [q] * k, mul))
        rows = [
            [
                add(mul(a, minus_q21), mul(b, w))
                for a, b, w in zip([zero] + row, row + [zero], weights)
            ]
            for row in rows
        ]
        rs = mul(rs, minus_r)
        rows.append([one] + [zero] * (k - 1) + [rs])


def _phi(m: int, params: BraidingParams) -> list:
    """Phi_m, the m-th item of ``_phis``."""
    return next(islice(_phis(params), m, None))


def naive_symmetrizer(md: tuple, params: BraidingParams) -> SymmetrizerMatrix:
    """Sum of T_sigma over all of S_n, built over the weak order.

    T_identity = id and T_{sigma s_i} = T_sigma ∘ c_i whenever the length
    increases; well-definedness along different reduced words (Matsumoto)
    is asserted whenever a permutation is reached twice.
    """
    a, b = md
    field = params.field
    basis = words_of_multidegree(a, b)
    n = a + b
    identity = tuple(range(n))
    # each T_sigma sends a word to scalar * word: store {word: (word', scalar)}
    ops = {identity: {w: (w, field.one) for w in basis}}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for sigma in frontier:
            op = ops[sigma]
            for i in range(1, n):
                if sigma[i - 1] >= sigma[i]:
                    continue  # length would not increase
                tau = sigma[: i - 1] + (sigma[i], sigma[i - 1]) + sigma[i + 1 :]
                new_op = {}
                for w in basis:
                    v, s1 = _c_word(i, w, params)
                    u, s2 = op[v]
                    new_op[w] = (u, s1 * s2)
                if tau in ops:
                    if ops[tau] != new_op:
                        raise AssertionError(
                            "braided operators violate Matsumoto invariance"
                        )
                else:
                    ops[tau] = new_op
                    new_frontier.append(tau)
        frontier = new_frontier

    columns = {w: {u: field.zero for u in basis} for w in basis}
    for op in ops.values():
        for w, (u, s) in op.items():
            columns[w][u] = columns[w][u] + s
    return SymmetrizerMatrix(
        field,
        md,
        tuple(basis),
        tuple(tuple(e.value for e in col.values()) for col in columns.values()),
    )


def _condition2_witnesses(j: int, admitted: list, params: BraidingParams) -> list:
    """Earlier members n < j realizing the lemma's second condition."""
    p = params.field.characteristic
    q, r = params.q, params.r
    one = params.field.one
    out = []
    for n in admitted:
        d = j - n
        if d % 2 == 0:
            if q ** (n + j - 1) * r * r == one and _divides(2 * p, d):
                out.append(n)
        else:
            if q ** ((n + j - 1) // 2) * r == -one and _divides(p, d):
                out.append(n)
    return out


def compute_J_by_elements(m_max: int, params: BraidingParams) -> JClassification:
    """``jset.compute_J`` on FieldElements: the sign equation, the pairwise
    condition and the lemma's powers of q and r by the closed formulas."""
    field = params.field
    p = field.characteristic
    one = field.one
    q, r = params.q, params.r

    result = JClassification(bound=m_max, members=[])
    admitted: list = []
    for j in range(m_max + 1):
        first = first_equation(j, params)
        raw_member = first and all(j_condition(j, n, params) for n in admitted)

        cond1 = first and all(
            q ** (n + j - 1) * r * r != one for n in admitted
        )
        witnesses = _condition2_witnesses(j, admitted, params)
        lemma_member = cond1 or bool(witnesses)
        if raw_member != lemma_member and params.scalars.hypothesis(j):
            result.anomalies.append(
                f"j={j}: raw definition ({raw_member}) and characterization "
                f"lemma ({lemma_member}) disagree under (j)_q^! b_j != 0"
            )
        if not raw_member:
            continue

        if cond1 and witnesses:
            result.anomalies.append(f"j={j}: satisfies both J1 and J2 conditions")
        if cond1:
            cls, witness = "J1", None
        elif witnesses:
            cls = "J2"
            j1_so_far = {e.j for e in result.members if e.cls == "J1"}
            preferred = [n for n in witnesses if n in j1_so_far]
            witness = (preferred or witnesses)[0]
        else:
            result.anomalies.append(
                f"j={j}: raw member matching neither lemma condition; "
                "classified J1 by fallback"
            )
            cls, witness = "J1", None

        # simplified divisibility form of condition (2), valid once b_j != 0
        if p and not field._is_zero(params.scalars.upto(j).b[j]):
            simplified = any(
                q ** (n + j - 1) * r * r == one
                and (_divides(p, j - n) if p % 2 else _divides(4, j - n))
                for n in admitted
            )
            if simplified != bool(witnesses):
                result.anomalies.append(
                    f"j={j}: condition (2) ({bool(witnesses)}) and its "
                    f"divisibility simplification ({simplified}) disagree "
                    "although b_j != 0"
                )

        result.members.append(JEntry(j, cls, witness))
        admitted.append(j)
    return result


# -- Q2^{k,m}: exact bivariate integer polynomials ---------------------------
#
# Sparse representation: {(q_exponent, r_exponent): integer coefficient}.
# During division by q^(2k+m) r^2 - 1 the q-exponents may go negative
# (division happens over Z[q, q^-1][r]); the quotient must come out in
# Z[q, r] and leave zero remainder, which is asserted.


def _qr_add_term(poly: dict, key: tuple, c: int) -> None:
    new = poly.get(key, 0) + c
    if new:
        poly[key] = new
    else:
        poly.pop(key, None)


def _qr_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (qa, ra), ca in a.items():
        for (qb, rb), cb in b.items():
            _qr_add_term(out, (qa + qb, ra + rb), ca * cb)
    return out


@lru_cache(maxsize=None)
def q2_poly(k: int, m: int) -> dict:
    """Q2^{k,m} in Z[q,r] as a sparse exponent map (read-only).

    Defined as the exact quotient of
    (q^((2k+m)(m+1)/2) (-r)^(m+1) - 1) * prod_{i=0}^{m} (1 - q^(k+i) r)
    by q^(2k+m) r^2 - 1; exactness and nonnegativity of q-exponents are
    verified at construction.
    """
    e_top = (2 * k + m) * (m + 1) // 2
    sign = (-1) ** (m + 1)
    numerator = {(e_top, m + 1): sign, (0, 0): -1}
    for i in range(m + 1):
        numerator = _qr_mul(numerator, {(0, 0): 1, (k + i, 1): -1})

    d_exp = 2 * k + m
    quotient: dict = {}
    rem = dict(numerator)
    while rem:
        r_deg = max(re for (_, re) in rem)
        if r_deg < 2:
            break
        lead = [(qe, c) for (qe, re), c in rem.items() if re == r_deg]
        for qe, c in lead:
            _qr_add_term(quotient, (qe - d_exp, r_deg - 2), c)
            _qr_add_term(rem, (qe, r_deg), -c)
            _qr_add_term(rem, (qe - d_exp, r_deg - 2), c)
    if rem:
        raise InternalInexactDivision(f"Q2^({k},{m}): nonzero remainder {rem}")
    if any(qe < 0 for (qe, _) in quotient):
        raise InternalInexactDivision(f"Q2^({k},{m}): negative q-exponent")
    return quotient


def q2_eval(k: int, m: int, params: BraidingParams) -> FieldElement:
    """Q2^{k,m} evaluated at the field points q, r (total, even at poles)."""
    q, r = params.q, params.r
    acc = params.field.zero
    for (qe, re), c in q2_poly(k, m).items():
        acc = acc + params.field.from_int(c) * q**qe * r**re
    return acc
