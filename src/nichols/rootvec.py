"""Distinguished elements of degree k*alpha1 + 2*alpha2 and their calculus.

Everything here lives in the (m+1)-dimensional space U_m spanned by
(-q21)^i u_hat_i u_hat_{m-i} (i = 0..m), with coordinates as the primary
representation.  The elements are built on payloads: u_k as the row of
its coefficients on x1^(k-b) x2 x1^b, from row_(k-1) by one shifted
subtraction; u_hat_k as that row over (k)_q^! b_k; each basis pair as the
products of two such rows, one word per pair of entries; and a vector's
words as one payload sum of the pairs.  These builders, like the
hypothesis (m)_q^! b_m, read q11, q12, q21 and the s-free columns q_pow
and qfact_b, never q22: ``level_elements``, the elements ``scan --check
oracles`` tests at one level, serve every s of a (q, r), and the scan
builds them once per pair.  u_k is rebuilt from row_0 on each call; u_hat_k
and the pairs, which the scan reads again, are cached.  The steps on U_m are
stated once, on payload rows: the row of P_m, the preimage under d1 with
lambda_0 = 0, and ad x1.  P_k, (ad x1)^t, L_n and both walks of
``oracle`` (the kernel walk and the candidate walk) call them.  On these
routes FieldElements appear only at the ``UhatBasisVector`` boundary; the
closed forms S(k,t) and (ad x1)^m(P_k) and the coordinate extraction,
which no hot loop runs, keep FieldElement arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate

from .braided import GradedElement
from .errors import NotInJ2, OutOfRange, SolvabilityViolated
from .fields import FieldElement
from .jset import JClassification, compute_J
from .qcalc import BraidingParams, beta_coeff, lambda_coeff, q_binom, q_int


def _word(a: int, b: int) -> tuple:
    """x1^a x2 x1^b."""
    return (1,) * a + (2,) + (1,) * b


def u_k(k: int, params: BraidingParams) -> GradedElement:
    """u_0 = x2, u_k = x1 u_(k-1) - q^(k-1) q12 u_(k-1) x1, built as the row
    of payloads row_k[b] on x1^(k-b) x2 x1^b: row_0 = [1] and
    row_k[b] = row_(k-1)[b] - q^(k-1) q12 row_(k-1)[b-1]."""
    field = params.field
    add, mul, zero = field._add, field._mul, field._from_int(0)
    row = [field._from_int(1)]
    for q_j in params.scalars.upto(k).q_pow[:k]:
        weight = field._neg(mul(q_j, params.q12.value))
        row = [add(a, mul(weight, b)) for a, b in zip(row + [zero], [zero] + row)]
    return GradedElement.from_payloads(
        field, {_word(k - b, b): c for b, c in enumerate(row)}
    )


@lru_cache(maxsize=512)
def u_hat_k(k: int, params: BraidingParams) -> GradedElement:
    """u_k normalized by (k)_q^! b_k; the zero element when that vanishes."""
    field = params.field
    norm = params.scalars.upto(k).qfact_b[k]
    if field._is_zero(norm):
        return GradedElement.zero(field)
    inv, mul = field._inv(norm), field._mul
    return GradedElement.from_payloads(
        field, {w: mul(inv, c) for w, c in u_k(k, params).terms.items()}
    )


@lru_cache(maxsize=512)
def uhat_pair_words(i: int, m: int, params: BraidingParams) -> GradedElement:
    """(-q21)^i u_hat_i u_hat_(m-i) expanded into words: x1^(i-b) x2
    x1^(b+m-i-b') x2 x1^(b') carries (-q21)^i u_hat_i[b] u_hat_(m-i)[b'], and
    distinct (b, b') give distinct words, so no two products meet."""
    field = params.field
    mul = field._mul
    sign = reduce(mul, [field._neg(params.q21.value)] * i, field._from_int(1))
    right = u_hat_k(m - i, params).terms.items()
    return GradedElement.from_payloads(field, {
        w1 + w2: mul(mul(sign, c1), c2)
        for w1, c1 in u_hat_k(i, params).terms.items() for w2, c2 in right
    })


def _row_words(row: list, m: int, params: BraidingParams) -> GradedElement:
    """sum_i row[i] (-q21)^i u_hat_i u_hat_(m-i) for a payload row at level m."""
    field = params.field
    add, mul = field._add, field._mul
    out: dict = {}
    for i, lam in enumerate(row):
        if field._is_zero(lam):
            continue
        for w, c in uhat_pair_words(i, m, params).terms.items():
            c = mul(lam, c)
            out[w] = add(out[w], c) if w in out else c
    return GradedElement.from_payloads(field, out)


def level_elements(m: int, params: BraidingParams) -> tuple | None:
    """The elements ``scan --check oracles`` tests at level m: the m + 1 pairs
    (-q21)^i u_hat_i u_hat_(m-i) and the words of P_m; None where
    (m)_q^! b_m = 0.  None of them reads q22."""
    if not params.scalars.hypothesis(m):
        return None
    elements = [uhat_pair_words(i, m, params) for i in range(m + 1)]
    elements.append(_row_words(_p_row(m, params), m, params))
    return tuple(elements)


@dataclass(frozen=True)
class UhatBasisVector:
    """Coordinates in the basis {(-q21)^i u_hat_i u_hat_{m-i}} of U_m.

    m = -1 with empty coords stands for the zero space (the image of d1 on
    U_0).  Construction requires (m)_q^! b_m != 0 so the basis exists, and
    coordinates in the field of ``params``.
    """

    params: BraidingParams
    m: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.m + 1:
            raise OutOfRange(f"level {self.m} needs {self.m + 1} coordinates")
        for c in self.coords:
            self.params.field.payload(c)  # FieldMismatch for another field's element
        if self.m >= 0:  # m = -1 is the zero space
            self.params.scalars.require(self.m, " while building a U_m coordinate vector")

    @classmethod
    def from_coords(cls, params: BraidingParams, coords) -> "UhatBasisVector":
        coords = tuple(coords)
        return cls(params, len(coords) - 1, coords)

    @classmethod
    def zero(cls, params: BraidingParams, m: int) -> "UhatBasisVector":
        return cls(params, m, tuple(params.field.zero for _ in range(m + 1)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "UhatBasisVector") -> "UhatBasisVector":
        if (other.params, other.m) != (self.params, self.m):
            raise OutOfRange("levels or params differ")
        return UhatBasisVector(
            self.params, self.m, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "UhatBasisVector") -> "UhatBasisVector":
        return self + other.scale(-self.params.field.one)

    def scale(self, scalar) -> "UhatBasisVector":
        if isinstance(scalar, int):
            scalar = self.params.field.from_int(scalar)
        return UhatBasisVector(
            self.params, self.m, tuple(scalar * c for c in self.coords)
        )

    def to_words(self) -> GradedElement:
        field = self.params.field
        return _row_words([field.payload(c) for c in self.coords], self.m, self.params)

    def to_json(self) -> list:
        return [str(c) for c in self.coords]


# -- the steps on U_m, on payload rows ------------------------------------------
# They check no hypothesis: the kernel walk runs them through levels where the
# u_hat basis is undefined.


def _p_row(m: int, params: BraidingParams) -> list:
    """P_m: lambda_i = q^(i(i-1)/2), the prefix products of q^0, q^1, ..."""
    table = params.scalars.upto(m)
    return list(accumulate([table.one] + table.q_pow[:m], params.field._mul))


def _d1_preimage(w: list, params: BraidingParams) -> list:
    """The lambda at level len(w) with lambda_0 = 0 and -q21^(-1) d1(lambda) = w.

    d1 acts by mu_i = -q21 (lambda_(i+1) - q^i lambda_i), so
    lambda_(i+1) = q^i lambda_i + w_i.  It gives
    lambda_i = sum_(j<i) q^((i+j)(i-j-1)/2) w_j and
    lambda_n = q^(n(n-1)/2) sum_i q^(-i(i+1)/2) w_i, so the preimage is
    interior (lambda_n = 0 too) exactly when w is in the image of the
    interior."""
    add, mul = params.field._add, params.field._mul
    lam = [params.field._from_int(0)]
    for q_i, w_i in zip(params.scalars.upto(len(w)).q_pow, w):
        lam.append(add(mul(q_i, lam[-1]), w_i))
    return lam


def _ad_x1_pow(rows: list, m: int, t: int, params: BraidingParams) -> list:
    """(ad x1)^t of payload rows at level m, one level at a time.

    ad x1 is a braided derivation with ad x1(u_hat_k) = c_k u_hat_(k+1),
    c_k = (k+1)_q (1 - q^k r), so on the basis of U_m it acts by
    lambda'_j = lambda_(j-1) c_(j-1) (-q21)^(-1) + lambda_j q^j q12 c_(m-j),
    with c_k and q^j read off the point's scalar table.
    """
    if t == 0 or not rows:
        return rows
    field = params.field
    add, mul = field._add, field._mul
    table = params.scalars.upto(m + t)
    c, zero = table.c, field._from_int(0)
    shift = field._inv(field._neg(params.q21.value))
    weights = [mul(q_j, params.q12.value) for q_j in table.q_pow[: m + t]]  # q^j q12
    for k in range(m, m + t):
        stepped = []
        for lam in rows:
            up = [mul(mul(x, c[j]), shift) for j, x in enumerate(lam)]  # into j + 1
            stay = [mul(mul(x, weights[j]), c[k - j]) for j, x in enumerate(lam)]
            stepped.append([add(a, b) for a, b in zip([zero] + up, stay + [zero])])
        rows = stepped
    return rows


def _from_row(params: BraidingParams, row: list) -> UhatBasisVector:
    field = params.field
    return UhatBasisVector.from_coords(params, (FieldElement(field, x) for x in row))


# -- the named elements --------------------------------------------------------


def p_k(k: int, params: BraidingParams) -> UhatBasisVector:
    """P_k: coordinates q^(i(i-1)/2)."""
    params.scalars.require(k, f" while building P_{k}")
    return _from_row(params, _p_row(k, params))


def s_kt(k: int, t: int, params: BraidingParams) -> UhatBasisVector:
    """S(k,t): coordinates q^((i-t)(i-t-1)/2) (i choose t)_q for i >= t."""
    if not 0 <= t <= k:
        raise OutOfRange(f"need 0 <= t <= k, got t={t}, k={k}")
    params.scalars.require(k, f" while building S({k},{t})")
    field, q = params.field, params.q
    coords = []
    for i in range(k + 1):
        if i < t:
            coords.append(field.zero)
        else:
            e = (i - t) * (i - t - 1) // 2
            coords.append(q**e * q_binom(i, t, q))
    return UhatBasisVector(params, k, tuple(coords))


def ad_p_closed_form(m: int, k: int, params: BraidingParams) -> UhatBasisVector:
    """q12^(-m) (ad x1)^m (P_k) in coordinates, by the paper's closed formula.

    Sum over i of (m)_q^!/(m-i)_q^! * lambda_(m-i,k) * beta_(i,m,k) * S(k+m,i);
    the factorial ratio is computed as the product of (j)_q for
    m-i < j <= m, which is total.  No production route calls it:
    ``ad_pow_coords`` walks (ad x1)^m (P_k) one level at a time, and the
    tests hold the two equal.
    """
    if m < 0:
        raise OutOfRange(f"power {m} is negative")
    if k < 0:
        raise OutOfRange(f"level {k} is negative")
    params.scalars.require(k + m, f" while building (ad x1)^{m}(P_{k})")
    field, q = params.field, params.q
    acc = UhatBasisVector.zero(params, k + m)
    for i in range(m + 1):
        ratio = field.one
        for j in range(m - i + 1, m + 1):
            ratio = ratio * q_int(j, q)
        scalar = ratio * lambda_coeff(m - i, k, params) * beta_coeff(i, m, k, params)
        if scalar:
            acc = acc + s_kt(k + m, i, params).scale(scalar)
    return acc


# -- coordinate extraction -------------------------------------------------------


def uhat_coords(x: GradedElement, m: int, params: BraidingParams) -> UhatBasisVector:
    """Coordinates of a word-level element of U_m in the u_hat basis.

    Peels coefficients of the leading words x1^i x2 x1^(m-i) x2 from i = m
    downward (the leading word of u_i u_{m-i} occurs in u_j u_{m-j} only for
    j >= i, with unit diagonal), then checks that the coordinates expand back
    to x.
    """
    params.scalars.require(m, " while building coordinate extraction")
    field = params.field
    # c[j][i]: coefficient of x1^i x2 x1^(j-i) in u_j
    coeff_in_u = [
        [u_k(j, params).coeff(_word(i, j - i)) for i in range(j + 1)]
        for j in range(m + 1)
    ]
    qfact_b = params.scalars.upto(m).qfact_b
    norms = [
        FieldElement(field, field._inv(field._mul(qfact_b[j], qfact_b[m - j])))
        for j in range(m + 1)
    ]
    coords = [field.zero] * (m + 1)
    for i in range(m, -1, -1):
        total = x.coeff(_word(i, m - i) + (2,))  # the leading word of pair i
        for j in range(i + 1, m + 1):
            total = total - coords[j] * (-params.q21) ** j * norms[j] * coeff_in_u[j][i]
        coords[i] = total / ((-params.q21) ** i * norms[i])
    result = UhatBasisVector(params, m, tuple(coords))
    if result.to_words() != x:
        raise OutOfRange("element does not lie in U_m")
    return result


def ad_pow_coords(
    t: int, v: UhatBasisVector, params: BraidingParams
) -> UhatBasisVector:
    """(ad x1)^t of a coordinate vector, one level at a time (``_ad_x1_pow``).

    Only the input and the result are FieldElements.  Requires
    (m+t)_q^! b_(m+t) != 0, which covers every intermediate level.
    """
    if t < 0:
        raise OutOfRange(f"power {t} is negative")
    if t == 0:
        return v
    params.scalars.require(v.m + t, f" while building (ad x1)^{t} into level {v.m + t}")
    row = [params.field.payload(x) for x in v.coords]
    return _from_row(params, _ad_x1_pow([row], v.m, t, params)[0])


# -- L_n --------------------------------------------------------------------------


def l_n(
    n: int, params: BraidingParams, j_n: int, classification: JClassification | None = None
) -> UhatBasisVector:
    """The unique interior element of U_n with -q21^(-1) d1(L_n) = (ad x1)^(n-j_n-1)(P_(j_n)).

    Requires (n)_q^! b_n != 0 and that n belongs to J2 with witness j_n in J1
    satisfying q^(n+j_n-1) r^2 = 1, validated against ``classification``:
    J classified up to any bound >= n, or classified here up to n when it
    is None, so a caller that already holds J passes it.
    The right-hand side is walked up from P_(j_n) on payloads, and L_n is
    its ``_d1_preimage``, which is interior (d2(L_n) = 0 with it) exactly
    when the system is solvable.  Kernel membership is left to the oracles
    (see oracle.in_kernel).
    """
    params.scalars.require(n, f" while building L_{n}")
    if classification is None:
        classification = compute_J(n, params)
    entry = classification.entry(n)
    if entry is None or entry.cls != "J2":
        raise NotInJ2(f"{n} is not a J2 member for these parameters")
    if entry.witness != j_n:
        raise NotInJ2(f"witness mismatch: expected {entry.witness}, got {j_n}")
    if params.q ** (n + j_n - 1) * params.r**2 != params.field.one:
        raise NotInJ2(f"q^({n}+{j_n}-1) r^2 != 1")

    (rhs,) = _ad_x1_pow([_p_row(j_n, params)], j_n, n - j_n - 1, params)
    lam = _d1_preimage(rhs, params)
    if not params.field._is_zero(lam[n]):
        raise SolvabilityViolated(f"lambda_{n} != 0; no interior preimage exists")
    return _from_row(params, lam)
