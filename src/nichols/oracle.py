"""Independent ground truth for ker(pi): the quantum symmetrizer per
multidegree, a recursive skew-derivation membership test, Nichols-algebra
dimensions, dim(ker pi ∩ U_m), and full verification of the kernel-basis
theorem.

The symmetrizer S_n is built by the factorization
S_n = (S_{n-1} ⊗ id)(id + c_{n-1} + c_{n-1}c_{n-2} + ... + c_{n-1}...c_1),
restricted to one multidegree component, on field payloads: a
:class:`SymmetrizerMatrix` holds payload columns only; it has no
FieldElement view.  What does not depend on the point (the basis, the
rows each sub-basis word lands on, and each column's chain of
sub-columns) is a plan built once per process per multidegree, at most
120 of them.  One build loop, ``_build``, runs the q-products along each
chain, sums the scalars of the chain terms that share a sub-column, and
lifts the scaled sub-columns.  ``symmetrizer`` (512 entries) multiplies
q22 in at one point; with q22 formal, one build serves a whole (q, r)
pair as the layers of S by the power of q22.  S(x) is formed row by
row, row i read off the columns of x's own words.
The tests keep a naive sum over all permutation operators T_sigma, built
from the braiding c_i, as an independent oracle for the build.  An element
is zero in the Nichols algebra iff its symmetrizer image vanishes, and the
derivation recursion (zero iff d_1 and d_2 both map to zero) provides the
second, logically independent membership test, on payload terms through
``braided._derive``, with no element per node.

``compare_routes`` holds the two tests to each other at every point
(q, r, s) of one (q, r) pair, carried as one params and the s payloads.
Each test keeps q22 = s formal and gives a bitmask of the s per element;
``_unit_roots`` solves u + s d = 0 over the units, for the symmetrizer
route's rows and for ``verify_pair``.  ``in_kernel`` reads S(x) off the
cached ``symmetrizer`` at its one point, for any b;
``in_kernel_by_derivations`` is the derivation route at one point.

On U_m no word is built: by the derivation criterion, applied through the
coordinate formulas for d_1 and d_2, ker(pi) ∩ U_m is carried up from
ker(pi) ∩ U_{m-1}, one level at a time and with no elimination, as a basis
K_m of payload rows on the coordinates in the basis
(-q21)^i u_hat_i u_hat_{m-i}.  ``ker_cap_Um`` reads K_m in reduced form.
``verify_levels`` walks the levels of one parameter point once: it
classifies J once, up to the last level, carries K_m and each kernel
candidate as payload rows, and reads a candidate's kernel membership as
lying in span K_m and the kernel dimension as |K_m|; ``verify_main`` is
its one-level case.  Both walks take their steps from ``rootvec``: the
d_1 preimage and the row of P_m for K_m, and P_j and ad x1 for the
candidates.  ``verify_pair`` checks one (q, r) pair, walking only the s
where a sign equation or the cut of some P_m vanishes.
Words are capped at total degree DEGREE_CEILING; the CLI caps the level
routes at LEVEL_CEILING.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, islice, repeat, takewhile
from typing import Iterator

from .braided import GradedElement, _at_q22, _derive, multidegree
from .errors import DegreeCeilingExceeded, FieldMismatch, OutOfRange
from .fields import Field, FieldElement
from .jset import compute_J
from .linalg import rank as matrix_rank, rref
from .qcalc import BraidingParams
from .rootvec import UhatBasisVector, _ad_x1_pow, _d1_preimage, _p_row, l_n, level_elements

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


@dataclass(frozen=True)
class SymmetrizerMatrix:
    field: Field
    multidegree: tuple
    basis: tuple  # words in lexicographic order
    columns: tuple  # payloads; columns[j][i] = coefficient of basis[i] in S(basis[j])

    @property
    def index(self) -> dict:
        return _plan(*self.multidegree)[1]

    def apply(self, x: GradedElement) -> GradedElement:
        """S(x), one row product per basis word."""
        if x.field != self.field:
            raise FieldMismatch("element and symmetrizer over different fields")
        rows = _products(self.field, self.index, self.columns, x)
        return GradedElement.from_payloads(self.field, dict(zip(self.basis, rows)))


def _products(field: Field, index: dict, columns: tuple, x: GradedElement) -> Iterator:
    """row_i . x for each row of the columns in order: the coefficients of
    S(x), row i read off the columns of x's words."""
    add, mul, zero = field._add, field._mul, field._from_int(0)
    terms = [(columns[index[w]], c) for w, c in x.terms.items()]
    for i in range(len(columns)):
        acc = zero
        for column, c in terms:
            acc = add(acc, mul(column[i], c))
        yield acc


@lru_cache(maxsize=128)  # 120 multidegrees lie under DEGREE_CEILING
def _plan(a: int, b: int) -> tuple:
    """The point-free symmetrizer build: (basis, index, lifts, chains).

    lifts lists (last letter, sub-multidegree, the rows of this basis that
    the sub-basis words land on with the letter appended).
    chains[j] lists the terms of (id + sum_t c_{n-1}...c_t) w, w = basis[j],
    as (letter passed, letter moved, sub-column): the chain moves letter
    w[t-1] to the end past w[t:]; the identity term passes no letter (0).
    """
    basis = tuple(words_of_multidegree(a, b))
    index = {w: i for i, w in enumerate(basis)}
    lifts, sub_index = [], {}
    for last, sub_md in ((1, (a - 1, b)), (2, (a, b - 1))):
        if min(sub_md) >= 0:
            sub_basis, sub_index[last] = _plan(*sub_md)[:2]
            lifts.append((last, sub_md, tuple(index[u + (last,)] for u in sub_basis)))
    chains = []
    for w in basis:
        chain = [(0, w[-1], sub_index[w[-1]][w[:-1]])] if w else []
        for t in range(len(w) - 1, 0, -1):
            moved = w[t - 1]
            chain.append((w[t], moved, sub_index[moved][w[: t - 1] + w[t:]]))
        chains.append(tuple(chain))
    return basis, index, tuple(lifts), tuple(chains)


def _build(md: tuple, params: BraidingParams, lifted, q22) -> tuple:
    """The one symmetrizer build: the columns of S_md as layers by the power
    of q22, each layer a tuple of payload columns.

    Along a chain, the moved letter picks up q_{moved, x} for each letter x
    it passes, and the sub-column comes from ``lifted(sub_md)``, the layers
    of the sub-build.  The terms that move the same letter onto the same
    sub-column (the letters of one run) sum their scalars first, so each
    sub-column is lifted once per column.  With q22 a payload it is
    multiplied in and there is one layer.  With q22 None it stays formal: a
    moved x2 counts the x2's it has passed, so layer k holds the coefficient
    of q22^k, and a sub-build's layer k lifts into layer k + that count (k
    alone for a moved x1).
    """
    basis, _, plan_lifts, chains = _plan(*md)
    field = params.field
    one, zero = field._from_int(1), field._from_int(0)
    if sum(md) <= 1:
        return (tuple((one,) for _ in basis),)

    add, mul = field._add, field._mul
    b = md[1]
    formal = q22 is None
    # the letter x passed -> (q_{1,x}, q_{2,x}, the q22's it adds to a moved x2)
    q_past = {1: (params.q11.value, params.q21.value, 0),
              2: (params.q12.value, one, 1) if formal else (params.q12.value, q22, 0)}
    lifts = {last: (rows, lifted(sub_md)) for last, sub_md, rows in plan_lifts}
    layers = [[] for _ in range(1 + b * (b - 1) // 2 if formal else 1)]
    for chain in chains:
        cols = [[zero] * len(basis) for _ in layers]
        p1 = p2 = one  # prod of q_{1,x} and of q_{2,x} over the letters x passed
        crossed = 0  # the x2's passed, where q22 is formal
        scalars: dict = {}  # (moved, sub-column, shift) -> the summed scalar
        for passed, moved, k in chain:
            if passed:
                q1, q2, step = q_past[passed]
                p1, p2, crossed = mul(p1, q1), mul(p2, q2), crossed + step
            term, scalar = ((1, k, 0), p1) if moved == 1 else ((2, k, crossed), p2)
            prev = scalars.get(term)
            scalars[term] = scalar if prev is None else add(prev, scalar)
        for (moved, k, shift), scalar in scalars.items():
            rows, sub_layers = lifts[moved]
            for col, sub_columns in zip(cols[shift:], sub_layers):
                for i, e in zip(rows, sub_columns[k]):
                    col[i] = add(col[i], mul(scalar, e))
        for layer, col in zip(layers, cols):
            layer.append(tuple(col))
    return tuple(tuple(layer) for layer in layers)


@lru_cache(maxsize=512)
def symmetrizer(md: tuple, params: BraidingParams) -> SymmetrizerMatrix:
    """The quantum symmetrizer restricted to one multidegree component."""
    (columns,) = _build(md, params, lambda sub_md: (symmetrizer(sub_md, params).columns,),
                        params.q22.value)
    return SymmetrizerMatrix(params.field, md, _plan(*md)[0], columns)


def _formal(md: tuple, params: BraidingParams, builds: dict) -> tuple:
    """S_md with q22 formal (``_build``), at the other entries of params;
    ``builds`` keeps every build of one pair, sub-builds included."""
    if md not in builds:
        builds[md] = _build(md, params, lambda sub_md: _formal(sub_md, params, builds), None)
    return builds[md]


def nichols_dim(md: tuple, params: BraidingParams) -> int:
    """dim of the Nichols algebra in one multidegree: rank of the symmetrizer."""
    # rank(S) = rank(S^T), so the payload columns serve as rows
    return matrix_rank(params.field, symmetrizer(tuple(md), params).columns)


def _member_degree(x: GradedElement, params: BraidingParams) -> tuple | None:
    """The multidegree of x (None for zero), after the checks both membership
    tests make, in this order: x is over the braiding's field, homogeneous,
    and of total degree at most DEGREE_CEILING."""
    if x.field != params.field:
        raise FieldMismatch("element and braiding over different fields")
    if x.is_zero():
        return None
    deg = x.degree()  # raises NonHomogeneous when mixed
    if sum(deg) > DEGREE_CEILING:
        raise DegreeCeilingExceeded(
            f"total degree {sum(deg)} exceeds the ceiling {DEGREE_CEILING}"
        )
    return deg


def in_kernel(x: GradedElement, params: BraidingParams) -> bool:
    """Whether x maps to zero in the Nichols algebra: S(x) = 0, read row by
    row off the symmetrizer at this point up to the first nonzero row."""
    deg = _member_degree(x, params)
    if deg is None:
        return True
    sym = symmetrizer(deg, params)
    return all(map(sym.field._is_zero, _products(sym.field, sym.index, sym.columns, x)))


def in_kernel_by_derivations(x: GradedElement, params: BraidingParams) -> bool:
    """Derivation recursion: zero iff d_1 and d_2 images are both zero."""
    _member_degree(x, params)
    return bool(_derivations_vanish(x.terms, params, (params.q22.value,), {}))


def compare_routes(q, r, units: list, max_m: int) -> tuple:
    """The oracle check at the points (q, r, s), s in ``units``, of one
    (q, r) pair, at levels 0..max_m: (checks, skipped, found), found[j]
    listing the (m, index) of each level element on which the two
    membership routes disagree at units[j].  The pair is one params, at
    units[0], and the s payloads: no level element reads q22, so each
    level's elements are built once, and each route decides every s at
    once, as one bitmask over the s per element."""
    params = BraidingParams.from_qrs(q, r, units[0])
    values = tuple(s.value for s in units)
    levels = [level_elements(m, params) for m in range(max_m + 1)]
    tags = [(m, idx) for m, level in enumerate(levels) if level for idx in range(len(level))]
    shared = [levels[m][idx] for m, idx in tags]
    diffs = [a ^ b for a, b in zip(_kernel_points(shared, params, values),
                                   _kernel_points_by_derivations(shared, params, values))]
    found = [[tag for tag, diff in zip(tags, diffs) if diff >> k & 1] for k in range(len(units))]
    return len(tags) * len(units), levels.count(None) * len(units), found


def _unit_roots(field: Field, position: dict, u, d) -> int:
    """The units s with u + s d = 0, as a bitmask over ``position`` (payload -> bit)."""
    if field._is_zero(d):
        return (1 << len(position)) - 1 if field._is_zero(u) else 0
    k = position.get(field._neg(field._mul(u, field._inv(d))))
    return 0 if k is None else 1 << k


def _kernel_points(elements: list, params: BraidingParams, values: tuple) -> list:
    """Symmetrizer route: for each element, the bitmask of the s payloads
    ``values`` at which it lies in ker(pi), at the other entries of params.
    Each element is homogeneous, with b <= 2, as ``compare_routes`` builds
    them.  S_(a,b) is built once per pair with q22 = s formal: an x2 passes
    at most one x2, so S(s) = A + s B (B = 0 for b <= 1), and S(s)x = 0 iff
    u + s d = 0 at every row, with u = (Ax)_i and d = (Bx)_i
    (``_unit_roots``).  The rows are read until no point is left."""
    field = params.field
    position = {s: k for k, s in enumerate(values)}
    builds: dict = {}  # the formal builds of the pair, by multidegree
    verdicts = []
    for x in elements:
        alive = (1 << len(values)) - 1
        if x.terms:
            deg = multidegree(next(iter(x.terms)))
            layers = _formal(deg, params, builds)
            index = _plan(*deg)[1]
            rows = [_products(field, index, layer, x) for layer in layers]
            for u, d in zip(rows[0], rows[1] if len(rows) > 1 else repeat(field._from_int(0))):
                alive &= _unit_roots(field, position, u, d)
                if not alive:
                    break
        verdicts.append(alive)
    return verdicts


def _kernel_points_by_derivations(elements: list, params: BraidingParams, values: tuple) -> list:
    """Derivation route: for each element, the bitmask of the s payloads
    ``values`` at which it lies in ker(pi), sharing one memo of verdicts."""
    memo: dict = {}
    return [_derivations_vanish(x.terms, params, values, memo) for x in elements]


def _unit_key(field: Field, items) -> tuple:
    """The (word, payload) items sorted by word, scaled to a leading 1."""
    terms = sorted(items)
    mul, inv = field._mul, field._inv(terms[0][1])
    return tuple([(w, mul(inv, c)) for w, c in terms])


def _derivations_vanish(terms: dict, params: BraidingParams, values: tuple, memo: dict) -> int:
    """The bitmask of the s payloads ``values`` (bit j for values[j]) at which
    the element with these terms (word -> nonzero payload) lies in ker(pi),
    a pair's one params giving every entry but q22 = s.

    ker(pi) is a subspace that holds no nonzero element of degree <= 1, so
    no terms lie in it everywhere and terms of degree <= 1 nowhere; any
    other element is read as its unit key, whose verdict over the whole
    pair ``memo`` keeps.  x lies in ker(pi) iff d_1 x and d_2 x do.  d_1
    reads no q22, so it is read once.  ``_derive`` keeps q22 formal in d_2:
    where it reads none (a key with at most one x2) d_2 is read once, and
    otherwise at each s that d_1 leaves.
    """
    if not terms:
        return (1 << len(values)) - 1
    if len(next(iter(terms))) <= 1:
        return 0
    field = params.field
    key = _unit_key(field, terms.items())
    if key in memo:
        return memo[key]
    (d1,) = _derive(1, key, params)
    mask = _derivations_vanish(d1, params, values, memo)
    if mask:
        d2 = _derive(2, key, params)
        if not any(d2[1:]):
            mask &= _derivations_vanish(d2[0], params, values, memo)
        else:
            for j, s in enumerate(values):
                if mask >> j & 1 and not _derivations_vanish(
                        _at_q22(field, d2, s), params, values, memo) >> j & 1:
                    mask ^= 1 << j
    memo[key] = mask
    return mask


def _cut(field: Field, lam: list, m: int, rs):
    """z_m(lambda) = lambda_0 + rs lambda_m, rs = (-r)^m s: the cut of the
    ``_kernels`` walk at level m, affine in s."""
    return field._add(lam[0], field._mul(rs, lam[m]))


def _kernels(params: BraidingParams) -> Iterator[list]:
    """K_0, K_1, ...: a basis of ker(pi) ∩ U_m as payload rows of coordinates.

    x is in ker(pi) iff d_1 x and d_2 x are, and d_2 x = z_m(lambda) u_hat_m
    with u_hat_m outside ker(pi) under the hypothesis.  So K_m spans the
    lambda with d1 lambda in span K_{m-1} (K_{-1} = []) and z_m(lambda) =
    lambda_0 + (-r)^m s lambda_m = 0 (at m = 0, (1 + s) lambda_0 = 0).  d1 is
    onto U_{m-1} with kernel P_m, so P_m and the d1 preimages of K_{m-1}
    (``rootvec._d1_preimage``, up to the unit -q21) span the first
    condition, and one pivot cuts them by z_m.  The walk is formal: it runs
    through levels where the hypothesis fails.  A yielded K is never
    modified.
    """
    field = params.field
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    minus_r = params.scalars.minus_r
    rs = params.s.value  # (-r)^m s
    basis: list = []
    for m in count():
        span = [_d1_preimage(kappa, params) for kappa in basis]
        span.append(_p_row(m, params))
        z = [_cut(field, lam, m, rs) for lam in span]
        pivot = next((i for i, c in enumerate(z) if not is_zero(c)), None)
        if pivot is not None:
            head = span.pop(pivot)
            scale = neg(field._inv(z.pop(pivot)))
            for i, c in enumerate(z):
                if not is_zero(c):
                    factor = mul(c, scale)
                    span[i] = [add(a, mul(factor, b)) for a, b in zip(span[i], head)]
        basis = span
        yield basis
        rs = mul(rs, minus_r)


def ker_cap_Um(m: int, params: BraidingParams) -> tuple:
    """(dimension, basis in u_hat coordinates) of ker(pi) ∩ U_m, read off K_m.

    The basis is the kernel's reduced echelon form with the columns reversed,
    as a nullspace of Phi_m gives it: each vector ends in a 1 at its own free
    column and is zero at the others.  So it depends on the kernel only."""
    params.scalars.require(m, "; the u_hat basis is undefined")
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


def _in_span(field: Field, reduced: tuple, row: list) -> bool:
    """Whether row lies in the span of ``reduced``, an ``rref`` result.

    Each reduced row is 1 at its own pivot and 0 at the others, so a row in
    their span is their sum weighted by its own pivot entries."""
    add, mul = field._add, field._mul
    combo = [field._from_int(0)] * len(row)
    for basis_row, pivot in zip(*reduced):
        combo = [add(a, mul(row[pivot], b)) for a, b in zip(combo, basis_row)]
    return combo == row


def verify_levels(
    levels: range, params: BraidingParams
) -> Iterator[KernelReport | None]:
    """Check the kernel-basis theorem at each level of ``levels`` in one pass.

    Yields a KernelReport per level, or None where (m)_q^! b_m = 0.  J is
    classified once, up to the last level: it is built one j at a time, so
    level m reads the members with j <= m.  K_m comes from the one
    ``_kernels`` walk.  Each candidate is a payload row that enters at its
    own level, as the row of P_j (j in J1) or as L_n (n in J2, solved once
    by ``l_n``), and ``rootvec._ad_x1_pow`` moves the rows up with the
    levels, so at level m they are (ad x1)^(m-j)(P_j) or (ad x1)^(m-n)(L_n).
    (m)_q^! b_m = prod_(k<m) c_k, so once it vanishes it stays 0 upwards:
    skipped levels come last and need no candidate and no K_m.  Membership, independence and the dimension
    are read in coordinates: a candidate is in the kernel iff it lies in
    span K_m, tested against one reduction of K_m per level, and
    dim(ker pi ∩ U_m) = |K_m|.

    The rows are ranked only at levels where a candidate enters: between
    them, the rows move by ad x1 alone, which is injective on U_m.  In the
    free algebra, x1 y - c y x1 = 0 forces y = 0 when every word of y holds
    x2 (take the word with the most leading x1's), so ``independent`` carries.
    A negative start or step is refused with OutOfRange; an empty range
    yields nothing.
    """
    if levels.start < 0 or levels.step < 0:
        raise OutOfRange(f"levels need a start and a step >= 0, got {levels}")
    if not levels:
        return
    field = params.field
    classification = compute_J(levels[-1], params)
    members = classification.members
    scalars = params.scalars
    rows: list = []  # the candidate rows of members[:len(rows)], at level `top`
    top = levels.start
    independent = True
    kernels = islice(_kernels(params), levels.start, levels.stop, levels.step)
    for m in levels:
        if not scalars.hypothesis(m):
            yield None
            continue
        kernel = next(kernels)
        rows = _ad_x1_pow(rows, top, m - top, params)
        carried = len(rows)
        for entry in takewhile(lambda e: e.j <= m, members[len(rows):]):
            if entry.cls == "J1":
                row = _p_row(entry.j, params)
            else:
                solved = l_n(entry.j, params, entry.witness, classification)
                row = [field.payload(c) for c in solved.coords]
            rows += _ad_x1_pow([row], entry.j, m - entry.j, params)
        top = m
        # one reduction of K_m serves every candidate of the level
        reduced = rref(field, kernel) if rows else ([], [])
        candidates: list = []
        for entry, row in zip(members, rows):
            power = m - entry.j
            if entry.cls == "J1":
                label = f"adP({power},{entry.j})"
            else:
                label = f"L({entry.j})" if power == 0 else f"adL({power},{entry.j})"
            candidates.append((label, _in_span(field, reduced, row)))

        if len(rows) > carried:
            independent = matrix_rank(field, rows) == len(rows)
        dim = len(kernel)
        matches = (
            dim == len(rows) and all(ok for _, ok in candidates) and independent
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
    if report is None:  # exactly where (m)_q^! b_m = 0
        params.scalars.require(m, "; theorem hypothesis fails")
    return report


def verify_pair(q, r, units: list, max_m: int) -> tuple:
    """The main check at the points (q, r, s), s in ``units``, of one (q, r)
    pair, at levels 0..max_m: (checks, skipped, found), found[j] listing the
    (m, report) of each level at units[j] that does not match the theorem.
    Every point checks the levels below ``top`` and skips the rest (see
    ``_s_equation_roots``).  ``verify_levels`` walks only the s where an
    s-equation holds; at every other s each level below ``top`` matches:

    - ``compute_J`` admits no j unless sign[j] = -1, and without a prior
      member its lemma side is that same test, so J ∩ [0, top) is empty;
    - the walk starts from K_0 = [] (s != -1), so its span at level m is
      {P_m}, and a nonzero cut of P_m leaves K_m = [] for each m < top;
    - so ``verify_levels`` would report dim 0, no candidates, and
      ``independent`` and ``matches_theorem`` true.

    The argument rests on neither the theorem nor a symmetry of the pair.
    """
    first = BraidingParams.from_qrs(q, r, units[0])
    top, j_side, kernel_side = _s_equation_roots(first, units, max_m)
    found: list = [[] for _ in units]
    for k in range(len(units)):
        if (j_side | kernel_side) >> k & 1:
            params = first if k == 0 else BraidingParams.from_qrs(q, r, units[k])
            reports = enumerate(verify_levels(range(max_m + 1), params))
            found[k] = [(m, rep) for m, rep in reports if rep and not rep.matches_theorem]
    return top * len(units), (max_m + 1 - top) * len(units), found


def _s_equation_roots(first: BraidingParams, units: list, max_m: int) -> tuple:
    """(top, J side, kernel side) for the pair of ``first``, its point at
    units[0].  top is the first level where (m)_q^! b_m = 0, or max_m + 1;
    that column reads no s.  A side is the bitmask of the units at which
    one of its s-equations holds below top, each affine in s and solved by
    ``_unit_roots``.  J side: sign[j] = -1, sign[j] being s times its value
    at ``first`` over units[0].  Kernel side: the cut of P_m, read off
    ``_cut`` at s = 0 and s = 1; at m = 0 it is 1 + s, zero iff K_0 != []."""
    field = first.field
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    table = first.scalars.upto(max_m)
    top = next((m for m, b in enumerate(table.qfact_b[: max_m + 1]) if is_zero(b)), max_m + 1)
    position = {s.value: k for k, s in enumerate(units)}
    one = table.one
    to_s_free = field._inv(first.s.value)
    j_side = kernel_side = 0
    r_m = one  # (-r)^m
    for m in range(top):
        j_side |= _unit_roots(field, position, one, mul(table.sign[m], to_s_free))
        p_m = _p_row(m, first)
        at_zero = _cut(field, p_m, m, field._from_int(0))
        kernel_side |= _unit_roots(field, position, at_zero,
                                   add(_cut(field, p_m, m, r_m), neg(at_zero)))
        r_m = mul(r_m, table.minus_r)
    return top, j_side, kernel_side
