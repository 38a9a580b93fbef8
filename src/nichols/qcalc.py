"""q-deformed combinatorics and the scalar quantities of the theory.

Provides (n)_q, (n)_q^!, Gaussian binomials via the Pascal recursion (total
in positive characteristic), the products b_k, lambda_{(n,k)}, beta_{(i,m',k)},
and the scalar membership conditions used to build the index set J.

The scalars the level routes read at every k are prefix products, so each
point keeps them in one :class:`ScalarTable` of payload columns, extended
on demand by one step per entry; the closed formulas below are the
definitions the tests hold the table to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import FieldMismatch, ZeroBraidingEntry
from .fields import Field, FieldElement


@dataclass(frozen=True)
class BraidingParams:
    """The braiding matrix (q_ij) of a rank-2 diagonal braiding.

    The derived scalars q = q11, r = q12*q21, s = q22 are computed on
    access; the prefix scalars of the level routes live in ``scalars``,
    built once per object.  Equality, hashing and pickling use the four
    entries only.  All four entries must be nonzero elements of one field.
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

    def __reduce__(self):
        return BraidingParams, (self.q11, self.q12, self.q21, self.q22)

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

    @cached_property
    def scalars(self) -> "ScalarTable":
        return ScalarTable(self)


class ScalarTable:
    """Payload prefix columns of one parameter point, indexed by k.

    q_pow[k] = q^k, q_int[k] = (k)_q, q_fact[k] = (k)_q^!, b[k] = b_k,
    qfact_b[k] = (k)_q^! b_k, sign[k] = q^(k(k-1)/2) (-r)^k s and
    c[k] = (k+1)_q (1 - q^k r).  ``upto(n)`` extends every column to
    index n (c to n - 1), each new entry from the one before it:
    sign[k+1] = sign[k] q^k (-r), b[k+1] = b[k] (1 - q^k r).
    """

    def __init__(self, params: BraidingParams) -> None:
        f = params.field
        self.field = f
        one = f._from_int(1)
        self.one, self.minus_one = one, f._neg(one)
        self.q = params.q.value
        self.r = f._mul(params.q12.value, params.q21.value)
        self.minus_r = f._neg(self.r)
        self.q_pow = [one]
        self.q_int = [f._from_int(0)]
        self.q_fact = [one]
        self.b = [one]
        self.qfact_b = [one]
        self.sign = [params.s.value]
        self.c: list = []

    def upto(self, n: int) -> "ScalarTable":
        f = self.field
        add, mul, neg = f._add, f._mul, f._neg
        while len(self.q_pow) <= n:
            k = len(self.q_pow) - 1
            q_k = self.q_pow[k]
            gap = add(self.one, neg(mul(q_k, self.r)))  # 1 - q^k r
            q_int = add(self.q_int[k], q_k)  # (k+1)_q
            self.q_pow.append(mul(q_k, self.q))
            self.q_int.append(q_int)
            self.q_fact.append(mul(self.q_fact[k], q_int))
            self.b.append(mul(self.b[k], gap))
            self.qfact_b.append(mul(self.q_fact[-1], self.b[-1]))
            self.sign.append(mul(mul(self.sign[k], q_k), self.minus_r))
            self.c.append(mul(q_int, gap))
        return self

    def hypothesis(self, m: int) -> bool:
        """Whether (m)_q^! b_m != 0."""
        return not self.field._is_zero(self.upto(m).qfact_b[m])


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


@lru_cache(maxsize=512)
def qfact_b(m: int, params: BraidingParams) -> FieldElement:
    """(m)_q^! * b_m — the nonvanishing hypothesis scalar, read off the table."""
    return FieldElement(params.field, params.scalars.upto(m).qfact_b[m])


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
