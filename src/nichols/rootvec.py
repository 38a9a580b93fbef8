"""Distinguished elements of degree k*alpha1 + 2*alpha2 and their calculus.

Everything here lives in the (m+1)-dimensional space U_m spanned by
(-q21)^i u_hat_i u_hat_{m-i} (i = 0..m), with coordinates as the primary
representation: the structural formulas for d1, d2 and ad x1, the ad-power
closed form and the d1-solving recursion are all stated in this basis.  Word
expansion and coordinate extraction provide the bridge to the free algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braided import GradedElement
from .errors import (
    HypothesisViolated,
    NotInJ2,
    OutOfRange,
    SolvabilityViolated,
)
from .fields import FieldElement
from .jset import JClassification, compute_J
from .qcalc import BraidingParams, beta_coeff, lambda_coeff, q_binom, q_int


@lru_cache(maxsize=512)
def u_k(k: int, params: BraidingParams) -> GradedElement:
    """u_0 = x2, u_k = x1 u_{k-1} - q^(k-1) q12 u_{k-1} x1."""
    field = params.field
    if k == 0:
        return GradedElement.generator(field, 2)
    prev = u_k(k - 1, params)
    x1 = GradedElement.generator(field, 1)
    return x1 * prev - (params.q ** (k - 1) * params.q12) * (prev * x1)


@lru_cache(maxsize=512)
def u_hat_k(k: int, params: BraidingParams) -> GradedElement:
    """u_k normalized by (k)_q^! b_k; the zero element when that vanishes."""
    field = params.field
    norm = params.scalars.upto(k).qfact_b[k]
    if field._is_zero(norm):
        return GradedElement.zero(field)
    return u_k(k, params).scale(FieldElement(field, field._inv(norm)))


@lru_cache(maxsize=512)
def uhat_pair_words(i: int, m: int, params: BraidingParams) -> GradedElement:
    """(-q21)^i u_hat_i u_hat_{m-i} expanded into words."""
    sign = (-params.q21) ** i
    return (u_hat_k(i, params) * u_hat_k(m - i, params)).scale(sign)


def _require_hypothesis(m: int, params: BraidingParams, what: str) -> None:
    if m >= 0 and not params.scalars.hypothesis(m):
        raise HypothesisViolated(f"({m})_q^! b_{m} = 0 while building {what}")


@dataclass(frozen=True)
class UhatBasisVector:
    """Coordinates in the basis {(-q21)^i u_hat_i u_hat_{m-i}} of U_m.

    m = -1 with empty coords stands for the zero space (the image of d1 on
    U_0).  Construction requires (m)_q^! b_m != 0 so the basis exists.
    """

    params: BraidingParams
    m: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.m + 1:
            raise ValueError(f"level {self.m} needs {self.m + 1} coordinates")
        _require_hypothesis(self.m, self.params, "a U_m coordinate vector")

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
            raise ValueError("levels or params differ")
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
        acc = GradedElement.zero(self.params.field)
        for i, c in enumerate(self.coords):
            if c:
                acc = acc + uhat_pair_words(i, self.m, self.params).scale(c)
        return acc

    def to_json(self) -> list:
        return [str(c) for c in self.coords]


# -- the named elements --------------------------------------------------------


def p_k(k: int, params: BraidingParams) -> UhatBasisVector:
    """P_k: coordinates q^(i(i-1)/2)."""
    _require_hypothesis(k, params, f"P_{k}")
    q = params.q
    return UhatBasisVector(
        params, k, tuple(q ** (i * (i - 1) // 2) for i in range(k + 1))
    )


def s_kt(k: int, t: int, params: BraidingParams) -> UhatBasisVector:
    """S(k,t): coordinates q^((i-t)(i-t-1)/2) (i choose t)_q for i >= t."""
    if not 0 <= t <= k:
        raise OutOfRange(f"need 0 <= t <= k, got t={t}, k={k}")
    _require_hypothesis(k, params, f"S({k},{t})")
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
    _require_hypothesis(k + m, params, f"(ad x1)^{m}(P_{k})")
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


# -- derivations and the solving recursion in coordinates -----------------------


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
    _require_hypothesis(k, params, f"solve_d1 at level {k}")
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


# -- coordinate extraction -------------------------------------------------------


def uhat_coords(x: GradedElement, m: int, params: BraidingParams) -> UhatBasisVector:
    """Coordinates of a word-level element of U_m in the u_hat basis.

    Peels coefficients of the leading words x1^i x2 x1^(m-i) x2 from i = m
    downward (the leading word of u_i u_{m-i} occurs in u_j u_{m-j} only for
    j >= i, with unit diagonal), then checks that the coordinates expand back
    to x.
    """
    _require_hypothesis(m, params, "coordinate extraction")
    field = params.field

    def lead_word(i: int) -> tuple:
        return (1,) * i + (2,) + (1,) * (m - i) + (2,)

    # c[j][i]: coefficient of x1^i x2 x1^(j-i) in u_j
    coeff_in_u = [
        [u_k(j, params).coeff((1,) * i + (2,) + (1,) * (j - i)) for i in range(j + 1)]
        for j in range(m + 1)
    ]
    qfact_b = params.scalars.upto(m).qfact_b
    norms = [
        FieldElement(field, field._inv(field._mul(qfact_b[j], qfact_b[m - j])))
        for j in range(m + 1)
    ]
    coords = [field.zero] * (m + 1)
    for i in range(m, -1, -1):
        total = x.coeff(lead_word(i))
        for j in range(i + 1, m + 1):
            total = total - coords[j] * (-params.q21) ** j * norms[j] * coeff_in_u[j][i]
        coords[i] = total / ((-params.q21) ** i * norms[i])
    result = UhatBasisVector(params, m, tuple(coords))
    if result.to_words() != x:
        raise ValueError("element does not lie in U_m")
    return result


def ad_pow_coords(
    t: int, v: UhatBasisVector, params: BraidingParams
) -> UhatBasisVector:
    """(ad x1)^t of a coordinate vector, one level at a time.

    ad x1 is a braided derivation with ad x1(u_hat_k) = c_k u_hat_(k+1),
    c_k = (k+1)_q (1 - q^k r), so on the basis of U_m it acts by
    lambda'_j = lambda_(j-1) c_(j-1) (-q21)^(-1) + lambda_j q^j q12 c_(m-j).
    The steps run on payloads, with c_k and q^j read off the point's scalar
    table; only the input and the result are FieldElements.  Requires
    (m+t)_q^! b_(m+t) != 0, which covers every intermediate level.
    """
    if t == 0:
        return v
    _require_hypothesis(v.m + t, params, f"(ad x1)^{t} into level {v.m + t}")
    field = params.field
    add, mul = field._add, field._mul
    table = params.scalars.upto(v.m + t)
    c, zero = table.c, field._from_int(0)
    shift = field._inv(field._neg(params.q21.value))
    weights = [mul(q_j, params.q12.value) for q_j in table.q_pow[: v.m + t]]  # q^j q12
    lam = [field.payload(x) for x in v.coords]
    for m in range(v.m, v.m + t):
        up = [mul(mul(x, c[j]), shift) for j, x in enumerate(lam)]  # into j + 1
        stay = [mul(mul(x, weights[j]), c[m - j]) for j, x in enumerate(lam)]
        lam = [add(a, b) for a, b in zip([zero] + up, stay + [zero])]
    return UhatBasisVector(params, v.m + t, tuple(FieldElement(field, x) for x in lam))


# -- L_n --------------------------------------------------------------------------


def l_n(
    n: int, params: BraidingParams, j_n: int, classification: JClassification | None = None
) -> UhatBasisVector:
    """The unique interior element of U_n with -q21^(-1) d1(L_n) = (ad x1)^(n-j_n-1)(P_(j_n)).

    Requires (n)_q^! b_n != 0 and that n belongs to J2 with witness j_n in J1
    satisfying q^(n+j_n-1) r^2 = 1, validated against ``classification``:
    J classified up to any bound >= n, or classified here up to n when it
    is None, so a caller that already holds J passes it.
    ``ad_pow_coords`` walks the right-hand side up from P_(j_n).
    d2(L_n) = 0 always holds for interior vectors; kernel membership is
    left to the oracles (see oracle.in_kernel).
    """
    _require_hypothesis(n, params, f"L_{n}")
    if classification is None:
        classification = compute_J(n, params)
    entry = classification.entry(n)
    if entry is None or entry.cls != "J2":
        raise NotInJ2(f"{n} is not a J2 member for these parameters")
    if entry.witness != j_n:
        raise NotInJ2(f"witness mismatch: expected {entry.witness}, got {j_n}")
    if params.q ** (n + j_n - 1) * params.r**2 != params.field.one:
        raise NotInJ2(f"q^({n}+{j_n}-1) r^2 != 1")

    v = solve_d1(ad_pow_coords(n - j_n - 1, p_k(j_n, params), params))
    if d2_on_um(v):
        raise AssertionError("d2(L_n) != 0")
    return v
