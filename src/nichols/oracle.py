"""Independent ground truth for ker(pi): the quantum symmetrizer per
multidegree, a recursive skew-derivation membership test, Nichols-algebra
dimensions, dim(ker pi ∩ U_m), and full verification of the kernel-basis
theorem.

The symmetrizer S_n is built by the factorization
S_n = (S_{n-1} ⊗ id)(id + c_{n-1} + c_{n-1}c_{n-2} + ... + c_{n-1}...c_1),
restricted to one multidegree component, on field payloads: a
:class:`SymmetrizerMatrix` holds payload columns, and its ``matrix`` is a
FieldElement view built on access.  ``apply`` and ``braiding_c`` read and
build GradedElement payload terms directly; the tests keep a naive sum
over all permutation operators T_sigma as an independent oracle for it.
An element is zero in the Nichols algebra iff its symmetrizer image
vanishes, and the derivation recursion (zero iff d_1 and d_2 both map to
zero) provides the second, logically independent membership test.

On U_m no word is built: by the derivation criterion, applied through the
coordinate formulas for d_1 and d_2, ker(pi) ∩ U_m is carried up from
ker(pi) ∩ U_{m-1}, one level at a time and with no elimination, as a basis
K_m of payload rows on the coordinates in the basis
(-q21)^i u_hat_i u_hat_{m-i}.  ``ker_cap_Um`` reads K_m in reduced form.
``verify_levels`` walks the levels of one parameter point once: it
classifies J once, up to the last level, carries K_m and each kernel
candidate by one ad x1 step from the level below, and reads a candidate's
kernel membership as lying in span K_m and the kernel dimension as |K_m|;
``verify_main`` is its one-level case.
Words are capped at total degree DEGREE_CEILING; the CLI caps the level
routes at LEVEL_CEILING.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, count, islice, takewhile
from typing import Iterator

from .braided import GradedElement, skew_derive
from .errors import (
    DegreeCeilingExceeded,
    FieldMismatch,
    HypothesisViolated,
    NonHomogeneous,
    OutOfRange,
)
from .fields import Field, FieldElement
from .jset import compute_J
from .linalg import rank as matrix_rank, rref
from .qcalc import BraidingParams
from .rootvec import UhatBasisVector, ad_pow_coords, l_n, p_k

# Longest word the symmetrizer routes build (dim, in_kernel, scan --check oracles).
DEGREE_CEILING = 14
# Highest level m served by verify, scan --check main, jset and multiplicity.
LEVEL_CEILING = 40


def words_of_multidegree(a: int, b: int) -> list:
    """All words with a ones and b twos, in lexicographic order."""
    if a < 0 or b < 0:
        raise OutOfRange("multidegree components must be nonnegative")
    if a + b > DEGREE_CEILING:
        raise DegreeCeilingExceeded(
            f"total degree {a + b} exceeds the ceiling {DEGREE_CEILING}"
        )
    # position tuples in lexicographic order give the words in that order
    return [
        tuple(1 if i in ones else 2 for i in range(a + b))
        for ones in combinations(range(a + b), a)
    ]


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


@dataclass(frozen=True)
class SymmetrizerMatrix:
    field: Field
    multidegree: tuple
    basis: tuple  # words in lexicographic order
    columns: tuple  # payloads; columns[j][i] = coefficient of basis[i] in S(basis[j])

    @cached_property
    def index(self) -> dict:
        return {w: i for i, w in enumerate(self.basis)}

    @property
    def matrix(self) -> tuple:
        """FieldElement rows: matrix[i][j] = coefficient of basis[i] in S(basis[j])."""
        f = self.field
        return tuple(
            tuple(FieldElement(f, col[i]) for col in self.columns)
            for i in range(len(self.basis))
        )

    def apply(self, x: GradedElement) -> GradedElement:
        """S(x) as the sum of c_w * column_w over the terms of x."""
        field = self.field
        if x.field != field:
            raise FieldMismatch("element and symmetrizer over different fields")
        add, mul = field._add, field._mul
        acc = [field._from_int(0)] * len(self.basis)
        for w, c in x.terms.items():
            col = self.columns[self.index[w]]
            acc = [add(a, mul(c, e)) for a, e in zip(acc, col)]
        return GradedElement.from_payloads(field, dict(zip(self.basis, acc)))


@lru_cache(maxsize=512)
def symmetrizer(md: tuple, params: BraidingParams) -> SymmetrizerMatrix:
    """The quantum symmetrizer restricted to one multidegree component."""
    a, b = md
    field = params.field
    basis = tuple(words_of_multidegree(a, b))
    n = a + b
    one, zero = field._from_int(1), field._from_int(0)
    if n <= 1:
        return SymmetrizerMatrix(field, md, basis, tuple((one,) for _ in basis))

    index = {w: i for i, w in enumerate(basis)}
    add, mul = field._add, field._mul
    q = {(i, j): getattr(params, f"q{i}{j}").value for i in (1, 2) for j in (1, 2)}
    # S_{n-1} ⊗ id on words ending in `last`: the sub-symmetrizer's columns,
    # and the rows of this basis that its basis words land on
    lifts = {}
    for last, sub_md in ((1, (a - 1, b)), (2, (a, b - 1))):
        if min(sub_md) >= 0:
            sub = symmetrizer(sub_md, params)
            rows = [index[u + (last,)] for u in sub.basis]
            lifts[last] = (sub.columns, sub.index, rows)

    columns = []
    for w in basis:
        # (id + sum_t c_{n-1}...c_t) w: the chain moves letter w[t-1] to the
        # end past w[t:], scaled by q_{w[t-1], x} for each letter x it passes
        terms = [(w, one)]
        p1 = p2 = one  # prod of q_{1,x} and of q_{2,x} over the x in w[t:]
        for t in range(n - 1, 0, -1):
            p1, p2 = mul(p1, q[1, w[t]]), mul(p2, q[2, w[t]])
            letter = w[t - 1]
            terms.append((w[: t - 1] + w[t:] + (letter,), p1 if letter == 1 else p2))
        col = [zero] * len(basis)
        for v, scalar in terms:
            sub_columns, sub_index, rows = lifts[v[-1]]
            for i, e in zip(rows, sub_columns[sub_index[v[:-1]]]):
                col[i] = add(col[i], mul(scalar, e))
        columns.append(tuple(col))
    return SymmetrizerMatrix(field, md, basis, tuple(columns))


def nichols_dim(md: tuple, params: BraidingParams) -> int:
    """dim of the Nichols algebra in one multidegree: rank of the symmetrizer."""
    # rank(S) = rank(S^T), so the payload columns serve as rows
    return matrix_rank(params.field, symmetrizer(tuple(md), params).columns)


def in_kernel(x: GradedElement, params: BraidingParams) -> bool:
    """Symmetrizer membership test: x maps to zero in the Nichols algebra."""
    if x.is_zero():
        return True
    deg = x.degree()  # raises NonHomogeneous when mixed
    return symmetrizer(deg, params).apply(x).is_zero()


def in_kernel_by_derivations(x: GradedElement, params: BraidingParams) -> bool:
    """Derivation recursion: zero iff d_1 and d_2 images are both zero.

    Base case: elements of total degree <= 1 are in the kernel iff zero.
    Verdicts are memoized on the canonical term form.
    """
    if not x.is_zero() and not x.is_homogeneous():
        raise NonHomogeneous("membership test requires a homogeneous element")
    memo: dict = {}

    def rec(y: GradedElement) -> bool:
        if y.is_zero():
            return True
        key = y.key()
        if key in memo:
            return memo[key]
        total = sum(y.degree())
        if total <= 1:
            verdict = False
        else:
            verdict = rec(skew_derive(1, y, params)) and rec(
                skew_derive(2, y, params)
            )
        memo[key] = verdict
        return verdict

    return rec(x)


def _kernels(params: BraidingParams) -> Iterator[list]:
    """K_0, K_1, ...: a basis of ker(pi) ∩ U_m as payload rows of coordinates.

    x is in ker(pi) iff d_1 x and d_2 x are, and d_2 x = z_m(lambda) u_hat_m
    with u_hat_m outside ker(pi) under the hypothesis.  So K_0 = [[1]] if
    1 + s = 0 and [] otherwise, and K_m spans the lambda with D_m lambda in
    span K_{m-1} and z_m(lambda) = lambda_0 + (-r)^m s lambda_m = 0, D_m the
    d1 map mu_i = -q21 (lambda_{i+1} - q^i lambda_i).  D_m is onto with
    kernel P_m, so P_m and the preimages of K_{m-1} with lambda_0 = 0
    (lambda_{i+1} = q^i lambda_i - kappa_i / q21) span the first condition,
    and one pivot cuts them by z_m.  The walk is formal: it runs through
    levels where the hypothesis fails.  A yielded K is never modified.
    """
    field = params.field
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    zero, one = field._from_int(0), field._from_int(1)
    table = params.scalars
    shift = neg(field._inv(params.q21.value))  # -1 / q21
    rs = params.s.value  # (-r)^m s
    basis = [[one]] if is_zero(add(one, rs)) else []
    for m in count(1):
        yield basis
        q_pow = table.upto(m).q_pow
        span = []
        for kappa in basis:
            lam = [zero]
            for q_i, k in zip(q_pow, kappa):
                lam.append(add(mul(q_i, lam[-1]), mul(k, shift)))
            span.append(lam)
        span.append(list(accumulate([one] + q_pow[:m], mul)))  # P_m
        rs = mul(rs, table.minus_r)
        z = [add(lam[0], mul(rs, lam[m])) for lam in span]
        pivot = next((i for i, c in enumerate(z) if not is_zero(c)), None)
        if pivot is not None:
            head = span.pop(pivot)
            scale = neg(field._inv(z.pop(pivot)))
            for i, c in enumerate(z):
                if not is_zero(c):
                    factor = mul(c, scale)
                    span[i] = [add(a, mul(factor, b)) for a, b in zip(span[i], head)]
        basis = span


def ker_cap_Um(m: int, params: BraidingParams) -> tuple:
    """(dimension, basis in u_hat coordinates) of ker(pi) ∩ U_m, read off K_m.

    The basis is the kernel's reduced echelon form with the columns reversed,
    as a nullspace of Phi_m gives it: each vector ends in a 1 at its own free
    column and is zero at the others.  So it depends on the kernel only."""
    if not params.scalars.hypothesis(m):
        raise HypothesisViolated(f"({m})_q^! b_{m} = 0; the u_hat basis is undefined")
    field = params.field
    kernel = next(islice(_kernels(params), m, None))
    reduced, _ = rref(field, [row[::-1] for row in kernel])
    basis = [
        UhatBasisVector(params, m, tuple(FieldElement(field, c) for c in row[::-1]))
        for row in reversed(reduced)
    ]
    return len(basis), basis


@dataclass
class KernelReport:
    m: int
    dim: int
    candidates: list  # (label, in_kernel) pairs
    independent: bool
    matches_theorem: bool

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "dim": self.dim,
            "candidates": [
                {"label": label, "in_kernel": ok} for label, ok in self.candidates
            ],
            "independent": self.independent,
            "matches_theorem": self.matches_theorem,
        }


def verify_levels(
    levels: range, params: BraidingParams
) -> Iterator[KernelReport | None]:
    """Check the kernel-basis theorem at each level of ``levels`` in one pass.

    Yields a KernelReport per level, or None where (m)_q^! b_m = 0.  J is
    classified once, up to the last level: it is built one j at a time, so
    level m reads the members with j <= m.  K_m comes from the one
    ``_kernels`` walk.  Each candidate enters at its own level, as P_j
    (j in J1) or L_n (n in J2), and ``ad_pow_coords`` moves it up with the
    levels, so at level m it is (ad x1)^(m-j)(P_j) or (ad x1)^(m-n)(L_n).
    (m)_q^! b_m = 0 persists upwards, so skipped levels come last and need
    no candidate and no K_m.  Membership, independence and the dimension
    are read in coordinates: a candidate is in the kernel iff it lies in
    span K_m, and dim(ker pi ∩ U_m) = |K_m|.
    """
    field = params.field
    classification = compute_J(levels[-1], params)
    members = classification.members
    scalars = params.scalars
    walked: list = []  # the candidate of members[i], at the last level reached
    kernels = islice(_kernels(params), levels.start, levels.stop, levels.step)
    for m in levels:
        if not scalars.hypothesis(m):
            yield None
            continue
        kernel = next(kernels)
        for entry in takewhile(lambda e: e.j <= m, members[len(walked):]):
            if entry.cls == "J1":
                walked.append(p_k(entry.j, params))
            else:
                walked.append(l_n(entry.j, params, entry.witness, classification))
        walked = [ad_pow_coords(m - v.m, v, params) for v in walked]
        candidates: list = []
        rows: list = []
        for entry, vec in zip(members, walked):
            power = m - entry.j
            if entry.cls == "J1":
                label = f"adP({power},{entry.j})"
            else:
                label = f"L({entry.j})" if power == 0 else f"adL({power},{entry.j})"
            coords = [field.payload(c) for c in vec.coords]
            rows.append(coords)
            in_span = matrix_rank(field, kernel + [coords]) == len(kernel)
            candidates.append((label, in_span))

        independent = matrix_rank(field, rows) == len(rows)
        dim = len(kernel)
        matches = (
            dim == len(walked) and all(ok for _, ok in candidates) and independent
        )
        yield KernelReport(
            m=m,
            dim=dim,
            candidates=candidates,
            independent=independent,
            matches_theorem=matches,
        )


def verify_main(m: int, params: BraidingParams) -> KernelReport:
    """Check the kernel-basis theorem at one level: see ``verify_levels``."""
    (report,) = verify_levels(range(m, m + 1), params)
    if report is None:
        raise HypothesisViolated(f"({m})_q^! b_{m} = 0; theorem hypothesis fails")
    return report
