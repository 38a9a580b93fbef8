"""q-deformed combinatorics and the scalar quantities of the theory.

Each point's level routes read one :class:`ScalarTable` of payload prefix
columns (q^k, (k)_q, (k)_q^! b_k, the sign-equation term and the ad x1
weights), extended on demand by one step per entry.  The hypothesis text
of every refusal and skip row lives there too (``ScalarTable.failure``).

The closed formulas below are the paper's: (n)_q, Gaussian binomials via
the Pascal recursion (total in positive characteristic), and the products
lambda_{(n,k)} and beta_{(i,m',k)} that ``rootvec.ad_p_closed_form``
evaluates.  The FieldElement definitions of (n)_q^!, b_k, the sign equation
and the pairwise J condition, which the table and ``jset.compute_J`` are
held to, are kept in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import FieldMismatch, HypothesisViolated, OutOfRange, ZeroBraidingEntry
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
        entries = (self.q11, self.q12, self.q21, self.q22)
        f = self.q11.field
        for entry in entries[1:]:
            if entry.field != f:
                raise FieldMismatch("braiding entries from different fields")
        for entry in entries:
            if not entry:
                raise ZeroBraidingEntry("braiding entries must be nonzero")
        # the dataclass hash, computed once: every lru_cache on params reads it
        object.__setattr__(self, "_hash", hash(entries))

    def __hash__(self) -> int:
        return self._hash

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

    q_pow[k] = q^k, q_int[k] = (k)_q, qfact_b[k] = (k)_q^! b_k,
    sign[k] = q^(k(k-1)/2) (-r)^k s and c[k] = (k+1)_q (1 - q^k r), the ad x1
    weight.  ``upto(n)`` extends every column to index n (c to n - 1), each
    new entry from the one before it: sign[k+1] = sign[k] q^k (-r) and
    qfact_b[k+1] = qfact_b[k] c[k], since (m)_q^! b_m = prod_(k<m) c_k.  By
    that product, once (m)_q^! b_m = 0 it stays 0 at every level above m.
    A negative index is refused with OutOfRange.
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
        self.qfact_b = [one]
        self.sign = [params.s.value]
        self.c: list = []

    def upto(self, n: int) -> "ScalarTable":
        if n < 0:
            raise OutOfRange(f"level {n} is negative")
        if n < len(self.q_pow):
            return self
        f = self.field
        add, mul, neg = f._add, f._mul, f._neg
        while len(self.q_pow) <= n:
            k = len(self.q_pow) - 1
            q_k = self.q_pow[k]
            q_int = add(self.q_int[k], q_k)  # (k+1)_q
            c = mul(q_int, add(self.one, neg(mul(q_k, self.r))))  # (k+1)_q (1 - q^k r)
            self.q_pow.append(mul(q_k, self.q))
            self.q_int.append(q_int)
            self.qfact_b.append(mul(self.qfact_b[k], c))
            self.sign.append(mul(mul(self.sign[k], q_k), self.minus_r))
            self.c.append(c)
        return self

    def hypothesis(self, m: int) -> bool:
        """Whether (m)_q^! b_m != 0."""
        return not self.field._is_zero(self.upto(m).qfact_b[m])

    @staticmethod
    def failure(m: int) -> str:
        """The text of a level where (m)_q^! b_m = 0: skip rows and ``require``."""
        return f"({m})_q^! b_{m} = 0"

    def require(self, m: int, context: str = "") -> None:
        """Raise HypothesisViolated, ``failure(m)`` + context, where (m)_q^! b_m = 0."""
        if not self.hypothesis(m):
            raise HypothesisViolated(self.failure(m) + context)


def q_int_payload(n: int, x, field: Field):
    """(n)_x = 1 + x + ... + x^(n-1) on payloads, summed term by term."""
    add, mul = field._add, field._mul
    acc, power = field._from_int(0), field._from_int(1)
    for _ in range(n):
        acc, power = add(acc, power), mul(power, x)
    return acc


def q_int(n: int, q: FieldElement) -> FieldElement:
    """(n)_q = 1 + q + ... + q^(n-1)."""
    return FieldElement(q.field, q_int_payload(n, q.value, q.field))


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
