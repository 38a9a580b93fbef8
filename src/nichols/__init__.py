"""Exact root-multiplicity engine for rank-2 Nichols algebras of diagonal
type, over the rationals, prime fields, and small extension fields.

The central objects live in degrees m*alpha1 + 2*alpha2: the package builds
the relevant kernel elements from quantum-integer data, classifies the
defect set J that counts missing Lyndon words, and double-checks everything
against a brute-force quantum-symmetrizer oracle.

The names below are the library API the README documents; everything else
is imported from its module (``nichols.fields``, ``nichols.oracle``, ...).
"""

from .braided import GradedElement, ad_x1_pow, skew_derive
from .errors import NicholsError
from .fields import parse_field_spec
from .jset import compute_J, multiplicity
from .oracle import in_kernel, verify_levels, verify_main
from .qcalc import BraidingParams
from .rootvec import UhatBasisVector, ad_p_closed_form, ad_pow_coords, l_n, p_k, uhat_coords

__version__ = "0.1.0"
