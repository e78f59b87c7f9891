"""Exact power-sum polynomials in three bases, with Bernoulli machinery.

The same sum 1**m + ... + n**m is computed as a polynomial in n, as a
polynomial in the triangular number u = n(n+1)/2 times a fixed multiplier,
and as a single-parity polynomial in N = n + 1/2. Every
construction has an independent second route and the package can verify
all the identities tying them together; nothing anywhere uses floats.
"""

from .bernoulli import (
    BernoulliCache,
    bernoulli_at_half,
    bernoulli_number,
    bernoulli_polynomial,
    verify_odd_zero,
)
from .forms import ConsistencyError, FaulhaberForm, Multiplier, ShiftedForm
from .polynomial import Polynomial, X
from .powersum import (
    check_partial_sum_identity,
    oracle_sum,
    powersum_monomial,
    powersum_via_bernoulli_poly,
)
from .recurrence import (
    he_ricci_polynomial,
    partial_sum_polynomial,
    verify_recurrence_consistency,
)
from .reports import CheckLine, VerificationReport
from .shifted import (
    shifted_closed_form,
    shifted_form,
    shifted_to_monomial,
    verify_roundtrip,
)
from .triangular import (
    NotTriangular,
    expand_to_monomial,
    faulhaber_form,
    faulhaber_form_inductive,
    square_in_triangular,
    triangular_decompose,
    verify_constant_term_bernoulli,
    verify_lemma,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliCache",
    "CheckLine",
    "ConsistencyError",
    "FaulhaberForm",
    "Multiplier",
    "NotTriangular",
    "Polynomial",
    "ShiftedForm",
    "VerificationReport",
    "X",
    "bernoulli_at_half",
    "bernoulli_number",
    "bernoulli_polynomial",
    "check_partial_sum_identity",
    "expand_to_monomial",
    "faulhaber_form",
    "faulhaber_form_inductive",
    "he_ricci_polynomial",
    "oracle_sum",
    "partial_sum_polynomial",
    "powersum_monomial",
    "powersum_via_bernoulli_poly",
    "shifted_closed_form",
    "shifted_form",
    "shifted_to_monomial",
    "square_in_triangular",
    "triangular_decompose",
    "verify_constant_term_bernoulli",
    "verify_lemma",
    "verify_odd_zero",
    "verify_recurrence_consistency",
    "verify_roundtrip",
]
