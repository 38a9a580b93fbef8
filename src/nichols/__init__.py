"""Exact root-multiplicity engine for rank-2 Nichols algebras of diagonal
type, over the rationals, prime fields, and small extension fields.

The central objects live in degrees m*alpha1 + 2*alpha2: the package builds
the relevant kernel elements from quantum-integer data, classifies the
defect set J that counts missing Lyndon words, and double-checks everything
against a brute-force quantum-symmetrizer oracle.
"""

from .braided import (
    ALPHA1,
    ALPHA2,
    GradedElement,
    ad_x1,
    ad_x1_pow,
    chi,
    is_lyndon,
    multidegree,
    shirshov_superletter,
    skew_derive,
)
from .errors import (
    DegreeCeilingExceeded,
    DivisionByZero,
    FieldMismatch,
    HypothesisViolated,
    InternalInexactDivision,
    MalformedSpec,
    NicholsError,
    NonHomogeneous,
    NonPrimeCharacteristic,
    NotInJ2,
    NotLyndon,
    OutOfRange,
    ReduciblePolynomial,
    SolvabilityViolated,
    UnsupportedM,
    UsageError,
    ZeroBraidingEntry,
)
from .fields import (
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    RationalField,
    parse_field_spec,
)
from .jset import (
    JClassification,
    JEntry,
    compute_J,
    m_prime,
    multiplicity,
    non_root_table_check,
    root_vector_criterion,
)
from .oracle import (
    KernelReport,
    braiding_c,
    in_kernel,
    in_kernel_by_derivations,
    ker_cap_Um,
    naive_symmetrizer,
    nichols_dim,
    symmetrizer,
    verify_main,
    words_of_multidegree,
)
from .qcalc import (
    BraidingParams,
    b_k,
    beta_coeff,
    first_equation,
    j_condition,
    lambda_coeff,
    q2_eval,
    q2_poly,
    q_binom,
    q_fact,
    q_int,
    qfact_b,
)
from .rootvec import (
    UhatBasisVector,
    ad_p_closed_form,
    ad_pow_coords,
    d1_on_um,
    d2_on_um,
    l_n,
    p_k,
    s_kt,
    solvability_scalar,
    solve_d1,
    u_hat_k,
    u_k,
    uhat_coords,
    uhat_pair_words,
)

__version__ = "0.1.0"
