"""The index set J = J1 ∪ J2, multiplicities of m*alpha1 + 2*alpha2, and the
numeric root-vector criterion.

J is built strictly incrementally: j is admitted iff the sign equation
q^(j(j-1)/2) (-r)^j s = -1 holds and the pairwise q-integer condition holds
against every previously admitted member.  Classification into J1/J2 follows
the characterization lemma; the raw construction, the lemma, and (in positive
characteristic, when b_j != 0) the simplified divisibility form are all
evaluated independently, with disagreements recorded as anomalies rather
than resolved silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import HypothesisViolated, OutOfRange, UnsupportedM
from .qcalc import BraidingParams, q_int


def _divides(d: int, x: int) -> bool:
    """d | x with the convention 0 | x iff x = 0."""
    if d == 0:
        return x == 0
    return x % d == 0


@dataclass(frozen=True)
class JEntry:
    j: int
    cls: str  # "J1" or "J2"
    witness: int | None  # the j_n of a J2 member


@dataclass
class JClassification:
    bound: int
    members: list
    anomalies: list = dataclass_field(default_factory=list)

    def j_set(self) -> list:
        return [e.j for e in self.members]

    def j1(self) -> list:
        return [e.j for e in self.members if e.cls == "J1"]

    def j2(self) -> list:
        return [e.j for e in self.members if e.cls == "J2"]

    def entry(self, j: int) -> JEntry | None:
        return next((e for e in self.members if e.j == j), None)

    def count_upto(self, m: int) -> int:
        return sum(1 for e in self.members if e.j <= m)

    def to_json(self) -> dict:
        data = {
            "J": self.j_set(),
            "J1": self.j1(),
            "J2": [{"n": e.j, "j_n": e.witness} for e in self.members if e.cls == "J2"],
            "bound": self.bound,
        }
        if self.anomalies:
            data["anomalies"] = list(self.anomalies)
        return data


def compute_J(m_max: int, params: BraidingParams) -> JClassification:
    """Classify J ∩ [0, m_max] with witnesses and cross-check anomalies.

    Runs on payloads: the sign equation, b_j and (j)_q^! b_j are table reads,
    and with q^k r^2 listed once, each pair (n, j) makes q^(n+j-1) r^2, or
    q^((n+j-1)/2) r for odd j - n, by one product.  The raw definition sums
    that base's q-integer."""
    field = params.field
    p = field.characteristic
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    table = params.scalars.upto(m_max)
    one, minus_one, zero = table.one, table.minus_one, field._from_int(0)
    q_pow, r = table.q_pow, table.r
    r2 = mul(r, r)
    q_r2 = [mul(q_k, r2) for q_k in q_pow[: m_max + 1]]  # q^k r^2

    def q_int_vanishes(k: int, base) -> bool:  # (k)_base = 0
        acc, power = zero, one
        for _ in range(k):
            acc, power = add(acc, power), mul(power, base)
        return is_zero(acc)

    result = JClassification(bound=m_max, members=[])
    for j in range(m_max + 1):
        first = table.sign[j] == minus_one
        raw_member = cond1 = first
        witnesses, simplified = [], False
        for n in (e.j for e in result.members):
            d = j - n
            base = mul(q_pow[n], q_r2[j - 1])  # q^(n+j-1) r^2
            unit = base == one
            cond1 = cond1 and not unit
            if d % 2 == 0:
                raw_member = raw_member and q_int_vanishes(d // 2, base)
                realizes = unit and _divides(2 * p, d)
            else:
                half = mul(q_pow[(n + j - 1) // 2], r)  # q^((n+j-1)/2) r
                raw_member = raw_member and q_int_vanishes(d, neg(half))
                realizes = half == minus_one and _divides(p, d)
            if realizes:  # the lemma's second condition
                witnesses.append(n)
            # the divisibility form of condition (2), valid once b_j != 0
            simplified = simplified or (unit and _divides(p if p % 2 else 4, d))
        lemma_member = cond1 or bool(witnesses)
        if raw_member != lemma_member and table.hypothesis(j):
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

        if p and not is_zero(table.b[j]) and simplified != bool(witnesses):
            result.anomalies.append(
                f"j={j}: condition (2) ({bool(witnesses)}) and its "
                f"divisibility simplification ({simplified}) disagree "
                "although b_j != 0"
            )

        result.members.append(JEntry(j, cls, witness))
    return result


def m_prime(m: int, params: BraidingParams):
    """The count m' appearing in the multiplicity corollary."""
    if m % 2 == 1:
        return (m + 1) // 2
    half = m // 2
    q, r, s = params.q, params.r, params.s
    if q ** (m * m // 4) * r**half * s == -params.field.one:
        return half + 1
    return half


def multiplicity(
    m: int, params: BraidingParams, classification: JClassification | None = None
) -> int:
    """The multiplicity of m*alpha1 + 2*alpha2: m' - |J ∩ [0,m]|.

    ``classification`` is J classified up to any bound >= m; J ∩ [0,m] is a
    prefix of it, so callers walking many levels classify J once.
    """
    if not params.scalars.hypothesis(m):
        raise HypothesisViolated(f"({m})_q^! b_{m} = 0; the corollary does not apply")
    if classification is None:
        classification = compute_J(m, params)
    count = classification.count_upto(m)
    value = m_prime(m, params) - count
    if value < 0:
        raise AssertionError(
            f"negative multiplicity {value} at m={m}: theorem violated"
        )
    return value


def root_vector_criterion(k: int, l: int, params: BraidingParams) -> bool:
    """Whether [x1^k x2 x1^l x2] is a root vector: |J ∩ [0,k+l]| <= l."""
    if k < l:
        raise OutOfRange(f"requires k >= l, got k={k}, l={l}")
    if not params.scalars.hypothesis(k + l):
        raise HypothesisViolated(f"({k + l})_q^! b_{k + l} = 0")
    if k == l:
        if params.q ** (k * k) * params.r**k * params.s != -params.field.one:
            raise HypothesisViolated(
                f"k = l = {k} requires q^(k^2) r^k s = -1"
            )
    return compute_J(k + l, params).count_upto(k + l) <= l


def non_root_table_check(m: int, params: BraidingParams) -> bool:
    """Evaluate the non-root condition row for m in {1, 2, 3, 4, 6}.

    Returns True when m*alpha1 + 2*alpha2 is NOT a root.
    """
    if m not in (1, 2, 3, 4, 6):
        raise UnsupportedM(f"the table covers m in {{1,2,3,4,6}}, got {m}")
    if not params.scalars.hypothesis(m):
        raise HypothesisViolated(f"({m})_q^! b_{m} = 0")
    field = params.field
    q, r, s = params.q, params.r, params.s
    one = field.one
    if m == 1:
        return not (1 + s) * (1 - r * s)
    if m == 2:
        return not (1 + s) * (1 - r * s) * (1 + q * r * r * s)
    if m == 3:
        return s == -one and not q_int(3, -(q * r))
    if m == 4:
        return (
            (s == -one and not q_int(3, -(q * r)))
            or (s == -one and q**3 * r * r == -one)
            or (r * s == one and not q_int(3, -(q * q * r)))
        )
    return q == one and s == -one and not q_int(3, -r)
