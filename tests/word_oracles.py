"""Word-level routes kept as test oracles for src/: the composite matrix
C_m for the coordinate kernel, and the naive sum over S_n for the recursive
symmetrizer."""

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
