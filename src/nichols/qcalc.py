"""q-deformed combinatorics and the scalar quantities of the theory.

Provides (n)_q, (n)_q^!, Gaussian binomials via the Pascal recursion (total
in positive characteristic), the products b_k, lambda_{(n,k)}, beta_{(i,m',k)},
the integer bivariate polynomials Q2^{k,m} with their exact-division
construction, and the scalar membership conditions used to build the index
set J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import FieldMismatch, InternalInexactDivision, ZeroBraidingEntry
from .fields import Field, FieldElement


@dataclass(frozen=True)
class BraidingParams:
    """The braiding matrix (q_ij) of a rank-2 diagonal braiding.

    The derived scalars q = q11, r = q12*q21, s = q22 are recomputed on
    access, never stored.  All four entries must be nonzero elements of one
    field.
    """

    q11: FieldElement
    q12: FieldElement
    q21: FieldElement
    q22: FieldElement

    def __post_init__(self):
        f = self.q11.field
        for entry in (self.q12, self.q21, self.q22):
            if entry.field != f:
                raise FieldMismatch("braiding entries from different fields")
        for entry in (self.q11, self.q12, self.q21, self.q22):
            if not entry:
                raise ZeroBraidingEntry("braiding entries must be nonzero")

    @classmethod
    def from_qrs(
        cls, q: FieldElement, r: FieldElement, s: FieldElement
    ) -> "BraidingParams":
        """Shorthand parameterization with q21 = 1 and q12 = r."""
        return cls(q11=q, q12=r, q21=q.field.one, q22=s)

    @property
    def field(self) -> Field:
        return self.q11.field

    @property
    def q(self) -> FieldElement:
        return self.q11

    @property
    def r(self) -> FieldElement:
        return self.q12 * self.q21

    @property
    def s(self) -> FieldElement:
        return self.q22


def q_int(n: int, q: FieldElement) -> FieldElement:
    """(n)_q = 1 + q + ... + q^(n-1)."""
    acc = q.field.zero
    power = q.field.one
    for _ in range(n):
        acc = acc + power
        power = power * q
    return acc


def q_fact(n: int, q: FieldElement) -> FieldElement:
    """(n)_q^! = prod_{k<=n} (k)_q."""
    acc = q.field.one
    for k in range(1, n + 1):
        acc = acc * q_int(k, q)
    return acc


def q_binom(n: int, k: int, q: FieldElement) -> FieldElement:
    """Gaussian binomial by the Pascal recursion; 0 outside 0 <= k <= n.

    (n choose k)_q = (n-1 choose k)_q + q^(n-k) (n-1 choose k-1)_q, which is
    polynomial evaluation and therefore well-defined even when (n)_q^! = 0.
    """
    field = q.field
    if k < 0 or k > n:
        return field.zero
    row = [field.one]  # row of (i choose j)_q for i = 0
    for i in range(1, n + 1):
        new = [field.one]
        for j in range(1, i):
            new.append(row[j] + q ** (i - j) * row[j - 1])
        new.append(field.one)
        row = new
    return row[k]


def b_k(k: int, params: BraidingParams) -> FieldElement:
    """prod_{j=0}^{k-1} (1 - q^j r)."""
    q, r = params.q, params.r
    acc = params.field.one
    power = params.field.one
    for _ in range(k):
        acc = acc * (1 - power * r)
        power = power * q
    return acc


@lru_cache(maxsize=None)
def qfact_b(m: int, params: BraidingParams) -> FieldElement:
    """(m)_q^! * b_m — the nonvanishing hypothesis scalar."""
    return q_fact(m, params.q) * b_k(m, params)


def lambda_coeff(n: int, k: int, params: BraidingParams) -> FieldElement:
    """prod_{j=1}^{n} (1 - q^(k-1+j) r) (k+j)_q."""
    q, r = params.q, params.r
    acc = params.field.one
    for j in range(1, n + 1):
        acc = acc * (1 - q ** (k - 1 + j) * r) * q_int(k + j, q)
    return acc


def beta_coeff(i: int, m_prime: int, k: int, params: BraidingParams) -> FieldElement:
    """prod_{j=1}^{i} (q^(m'+2k-j) r - r^(-1))."""
    q, r = params.q, params.r
    r_inv = r.inv()
    acc = params.field.one
    for j in range(1, i + 1):
        acc = acc * (q ** (m_prime + 2 * k - j) * r - r_inv)
    return acc


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


# -- membership conditions for the index set J -------------------------------


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
