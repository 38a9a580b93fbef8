"""Word-level routes kept as test oracles for the coordinate code in src/."""

from nichols.oracle import symmetrizer
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
