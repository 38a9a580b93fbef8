"""Independent routes kept as test oracles for src/: the composite matrix
C_m for the coordinate kernel, the naive sum over S_n for the recursive
symmetrizer, and the integer polynomials Q2^{k,m} whose vanishing at a
point the J2 membership condition restates."""

from functools import lru_cache

from nichols.errors import InternalInexactDivision
from nichols.fields import FieldElement
from nichols.oracle import (
    SymmetrizerMatrix,
    _c_word,
    symmetrizer,
    words_of_multidegree,
)
from nichols.qcalc import BraidingParams
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
