"""Specialization from Q to F_p holds the Q and F_p routes to each other.

A Q point (q, r, s) and a prime p that divides no numerator or denominator
of q, r, s give an F_p point, each a/b mapped to a b^(-1) mod p.  The
symmetrizer's entries are integer polynomials in the q_ij, so its rank, the
Nichols-algebra dimension, can only drop mod p.  ker pi ∩ U_m and J are cut
out by equations in q, r, s, which mod p can hold where over Q they do not:
at each level m where (m)_q^! b_m != 0 at both points, dim(ker pi ∩ U_m)
and |J ∩ [0, m]| over F_p are at least their Q values.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nichols.fields import parse_field_spec
from nichols.jset import compute_J
from nichols.oracle import nichols_dim, verify_levels
from nichols.qcalc import BraidingParams

QQ = parse_field_spec("Q")
PRIMES = (3, 5, 7, 11, 13)
MAX_M = 10
DEGREES = ((3, 2), (4, 2), (3, 3))
SMALL = st.fractions(-6, 6, max_denominator=4).filter(bool)


def _points(values, p) -> tuple:
    """The Q point at q, r, s = values and its image over Fp:p."""
    fp = parse_field_spec(f"Fp:{p}")
    images = [v.numerator * pow(v.denominator, -1, p) % p for v in values]
    return (BraidingParams.from_qrs(*(QQ.parse(str(v)) for v in values)),
            BraidingParams.from_qrs(*(fp.from_int(v) for v in images)))


def _levels(params) -> list:
    """(dim(ker pi ∩ U_m) or None where (m)_q^! b_m = 0, |J ∩ [0, m]|) per m <= MAX_M."""
    classification = compute_J(MAX_M, params)
    reports = verify_levels(range(MAX_M + 1), params)
    return [(rep and rep.dim, classification.count_upto(m)) for m, rep in enumerate(reports)]


@settings(max_examples=40, deadline=None)
@given(values=st.tuples(SMALL, SMALL, SMALL), data=st.data())
def test_specialization_only_grows_the_kernel_and_j(values, data):
    good = [p for p in PRIMES if all(v.numerator % p and v.denominator % p for v in values)]
    p = data.draw(st.sampled_from(good))  # 7, 11 and 13 divide no entry
    over_q, over_p = _points(values, p)
    for (dim_q, j_q), (dim_p, j_p) in zip(_levels(over_q), _levels(over_p)):
        if dim_q is not None and dim_p is not None:
            assert dim_p >= dim_q
            assert j_p >= j_q
    for md in DEGREES:
        assert nichols_dim(md, over_p) <= nichols_dim(md, over_q)


def test_specialization_witnesses_are_strict():
    # q = 1, r = -3/2, s = 1 maps to r = 5 over Fp:13, where 3 joins J and
    # ker pi ∩ U_3 is a line; over Q both are empty
    over_q, over_p = _points((Fraction(1), Fraction(-3, 2), Fraction(1)), 13)
    assert _levels(over_q)[3] == (0, 0)
    assert _levels(over_p)[3] == (1, 1)
    # the symmetrizer at (3, 3) loses rank mod 5
    for values, dims in [((-1, -1, -2), (4, 3)), ((1, -1, Fraction(-1, 3)), (20, 17))]:
        over_q, over_p = _points(tuple(map(Fraction, values)), 5)
        assert (nichols_dim((3, 3), over_q), nichols_dim((3, 3), over_p)) == dims
