"""Independent routes kept as test oracles for src/: the composite matrix
C_m for the coordinate kernel, the square matrix Phi_m whose kernel the
kernel walk carries, the braiding c_i and the naive sum over S_n for the
recursive symmetrizer with the FieldElement view of its matrix, the
definitions of (n)_q^!, b_k, the sign equation and the pairwise J
condition that the scalar table is held to, the classification of J on
FieldElements by those closed formulas, the FieldElement closed forms of
d1, d2 and the d1 preimage on U_m that the payload steps of ``rootvec``
are held to, the bracket recursion for u_k and the element products
(-q21)^i u_hat_i u_hat_(m-i) that its payload builders are held to, the
skew-derivation recursion on elements that the payload verdicts of
``oracle`` are held to, the super-letters of Lyndon words, and the
integer polynomials Q2^{k,m} whose vanishing at a point the J2
membership condition restates."""

from functools import lru_cache
from itertools import accumulate, count, islice
from typing import Iterator

from nichols.braided import GradedElement, chi, multidegree, skew_derive
from nichols.errors import NicholsError, OutOfRange, SolvabilityViolated
from nichols.fields import FieldElement
from nichols.jset import JClassification, JEntry, _divides
from nichols.oracle import SymmetrizerMatrix, symmetrizer, words_of_multidegree
from nichols.qcalc import BraidingParams, q_int
from nichols.rootvec import UhatBasisVector, uhat_pair_words


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


def sym_matrix(sym: SymmetrizerMatrix) -> tuple:
    """FieldElement rows: [i][j] = coefficient of basis[i] in S(basis[j])."""
    return tuple(tuple(FieldElement(sym.field, c) for c in row) for row in zip(*sym.columns))


def _c_word(i: int, word: tuple, params: BraidingParams) -> tuple:
    """c_i on a single word: ((..swapped..), scalar q_{l_i l_{i+1}})."""
    if not 1 <= i <= len(word) - 1:
        raise OutOfRange(f"position {i} not in 1..{len(word) - 1}")
    a, b = word[i - 1], word[i]
    swapped = word[: i - 1] + (b, a) + word[i + 1 :]
    lookup = {
        (1, 1): params.q11,
        (1, 2): params.q12,
        (2, 1): params.q21,
        (2, 2): params.q22,
    }
    return swapped, lookup[(a, b)]


def braiding_c(i: int, x: GradedElement, params: BraidingParams) -> GradedElement:
    """The braiding operator c_i on an element of homogeneous word length."""
    out = {}  # c_i permutes words, so no two terms land on one word
    for w, c in x.terms.items():
        swapped, scalar = _c_word(i, w, params)
        out[swapped] = x.field._mul(c, x.field.payload(scalar))
    return GradedElement.from_payloads(x.field, out)


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


# -- the scalar definitions, by the closed formulas --------------------------


def q_fact(n: int, q: FieldElement) -> FieldElement:
    """(n)_q^! = prod_{k<=n} (k)_q."""
    acc = q.field.one
    for k in range(1, n + 1):
        acc = acc * q_int(k, q)
    return acc


def b_k(k: int, params: BraidingParams) -> FieldElement:
    """prod_{j=0}^{k-1} (1 - q^j r)."""
    q, r = params.q, params.r
    acc = params.field.one
    power = params.field.one
    for _ in range(k):
        acc = acc * (1 - power * r)
        power = power * q
    return acc


def first_equation(j: int, params: BraidingParams) -> bool:
    """Whether q^(j(j-1)/2) (-r)^j s = -1 (also the P_j-vanishing criterion)."""
    q, r, s = params.q, params.r, params.s
    lhs = q ** (j * (j - 1) // 2) * (-r) ** j * s
    return lhs == -params.field.one


def j_condition(j: int, n: int, params: BraidingParams) -> bool:
    """The pairwise admission condition against an earlier member n < j.

    ((j-n)/2)_{q^(n+j-1) r^2} = 0 for even j-n;
    (j-n)_{-q^((n+j-1)/2) r} = 0 for odd j-n (then n+j-1 is even).
    """
    if n >= j:
        raise ValueError("requires n < j")
    q, r = params.q, params.r
    d = j - n
    if d % 2 == 0:
        base = q ** (n + j - 1) * r * r
        return not q_int(d // 2, base)
    base = -(q ** ((n + j - 1) // 2) * r)
    return not q_int(d, base)


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
        if p and b_k(j, params):
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


# -- d1, d2 and the d1 preimage on U_m, by the closed forms ------------------


def d1_on_um(v: UhatBasisVector) -> UhatBasisVector:
    """d1 in coordinates: level m -> m-1, mu_i = -q21 (lambda_{i+1} - q^i lambda_i)."""
    params = v.params
    q, q21 = params.q, params.q21
    lam = v.coords
    coords = tuple(
        -q21 * (lam[i + 1] - q**i * lam[i]) for i in range(v.m)
    )
    return UhatBasisVector(params, v.m - 1, coords)


def d2_on_um(v: UhatBasisVector) -> FieldElement:
    """The scalar z with d2(v) = z * u_hat_m: lambda_0 + (-r)^m s lambda_m."""
    params = v.params
    if v.m < 0:
        return params.field.zero
    r, s = params.r, params.s
    return v.coords[0] + (-r) ** v.m * s * v.coords[-1]


def solvability_scalar(w: UhatBasisVector) -> FieldElement:
    """sum_i q^(-i(i+1)/2) mu_i — zero iff w is in the image of the interior."""
    q = w.params.q
    acc = w.params.field.zero
    for i, mu in enumerate(w.coords):
        acc = acc + q ** (-i * (i + 1) // 2) * mu
    return acc


def solve_d1(w: UhatBasisVector) -> UhatBasisVector:
    """The unique interior v at level k = w.m + 1 with -q21^(-1) d1(v) = w.

    lambda_i = sum_{j<i} q^((i+j)(i-j-1)/2) mu_j; requires the solvability
    condition sum q^(-i(i+1)/2) mu_i = 0, which also forces lambda_k = 0.
    """
    params = w.params
    k = w.m + 1
    params.scalars.require(k, f" while building solve_d1 at level {k}")
    if solvability_scalar(w):
        raise SolvabilityViolated(
            "sum q^(-i(i+1)/2) mu_i != 0; no interior preimage exists"
        )
    q = params.q
    mu = w.coords
    lam = []
    for i in range(k + 1):
        acc = params.field.zero
        for j in range(i):
            acc = acc + q ** ((i + j) * (i - j - 1) // 2) * mu[j]
        lam.append(acc)
    v = UhatBasisVector(params, k, tuple(lam))
    if lam[0] or lam[k]:
        raise AssertionError("interior condition lambda_0 = lambda_k = 0 failed")
    back = d1_on_um(v).scale(-params.q21.inv())
    if back != w:
        raise AssertionError("solve_d1 postcondition -q21^(-1) d1(v) = w failed")
    return v


# -- the root vectors u_k and the u_hat pairs, on FieldElements ---------------


def u_k_by_brackets(k: int, params: BraidingParams) -> GradedElement:
    """u_0 = x2, u_k = x1 u_(k-1) - q^(k-1) q12 u_(k-1) x1, as element products."""
    field = params.field
    if k == 0:
        return GradedElement.generator(field, 2)
    prev = u_k_by_brackets(k - 1, params)
    x1 = GradedElement.generator(field, 1)
    return x1 * prev - (params.q ** (k - 1) * params.q12) * (prev * x1)


def u_hat_k_by_elements(k: int, params: BraidingParams) -> GradedElement:
    """u_k / ((k)_q^! b_k), or zero when that vanishes, by the closed formulas."""
    norm = q_fact(k, params.q) * b_k(k, params)
    if not norm:
        return GradedElement.zero(params.field)
    return u_k_by_brackets(k, params).scale(norm.inv())


def uhat_pair_by_elements(i: int, m: int, params: BraidingParams) -> GradedElement:
    """(-q21)^i u_hat_i u_hat_(m-i) as a product of elements."""
    product = u_hat_k_by_elements(i, params) * u_hat_k_by_elements(m - i, params)
    return product.scale((-params.q21) ** i)


def to_words_by_elements(v: UhatBasisVector) -> GradedElement:
    """sum_i lambda_i (-q21)^i u_hat_i u_hat_(m-i) as a sum of scaled elements."""
    acc = GradedElement.zero(v.params.field)
    for i, c in enumerate(v.coords):
        acc = acc + uhat_pair_by_elements(i, v.m, v.params).scale(c)
    return acc


def derivations_vanish_by_elements(x: GradedElement, params: BraidingParams) -> bool:
    """x in ker(pi) by the derivation recursion on elements, through the
    public ``skew_derive``, with no shared verdicts."""
    if x.is_zero():
        return True
    if len(next(iter(x.terms))) <= 1:
        return False
    return all(
        derivations_vanish_by_elements(skew_derive(i, x, params), params) for i in (1, 2)
    )


# -- Lyndon words and super-letters ------------------------------------------


class NotLyndon(NicholsError, ValueError):
    """Word is not a Lyndon word."""


def is_lyndon(word: tuple) -> bool:
    """Strictly smaller than each proper suffix (prefixes compare smaller)."""
    if not word:
        return False
    return all(word < word[t:] for t in range(1, len(word)))


def shirshov_superletter(word: tuple, params: BraidingParams) -> GradedElement:
    """The iterated braided bracket [word] of a Lyndon word.

    Decomposition w = uv with v the lexicographically smallest proper suffix
    (equivalently the longest proper Lyndon suffix); then
    [w] = [u][v] - chi(deg u, deg v) [v][u].
    """
    word = tuple(word)
    if not is_lyndon(word):
        raise NotLyndon(f"{word} is not a Lyndon word")
    field = params.field
    if len(word) == 1:
        return GradedElement.generator(field, word[0])
    v = min(word[t:] for t in range(1, len(word)))
    u = word[: len(word) - len(v)]
    bu = shirshov_superletter(u, params)
    bv = shirshov_superletter(v, params)
    return bu * bv - chi(multidegree(u), multidegree(v), params) * (bv * bu)


# -- Q2^{k,m}: exact bivariate integer polynomials ---------------------------
#
# Sparse representation: {(q_exponent, r_exponent): integer coefficient}.
# During division by q^(2k+m) r^2 - 1 the q-exponents may go negative
# (division happens over Z[q, q^-1][r]); the quotient must come out in
# Z[q, r] and leave zero remainder, which is asserted.


class InternalInexactDivision(NicholsError, ArithmeticError):
    """A polynomial division expected to be exact was not."""


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
