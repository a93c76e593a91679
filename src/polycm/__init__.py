"""Verification-grade numerics for the family f = [psi^(m)]^2 + psi^(n).

Every evaluation returns an EvalResult carrying a guaranteed absolute error
bound; every verdict (monotonicity, sign, complete monotonicity, inequality
strictness) is only asserted when its margin clears the relevant bounds.
The verification-only routes that tests compare against are in
tests/reference.py, outside this package.
"""

from .errors import CapabilityError, DomainError, PolycmError
from .evaluation import EvalResult, linear_grid, log_grid
from .polygamma import EULER_GAMMA, digamma, polygamma
from .kernels import (
    KernelId,
    KernelReport,
    h,
    kappa,
    kernel_report,
    omega,
    omega_plus_one,
    tanh_kernel,
)
from .cm_engine import (
    CMReport,
    FamilyIndex,
    cm_check,
    f_derivative,
    f_value,
    signed_derivative,
)
from .classifier import (
    ClassificationEntry,
    IntPolynomial,
    SearchParams,
    Witness,
    binom_quantity,
    bound_check,
    classify,
    discriminant_mn,
    envelope,
    expected_verdict,
    find_nonmonotonic,
    find_sign_change,
    leading_term_sign,
    p_derived,
    p_printed,
    q_derived,
    q_printed,
)
from .inequalities import (
    BoundsSuiteReport,
    InequalityResult,
    bounds_suite,
    polygamma_bounds_check,
    psi_log_bounds_check,
)

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "DomainError",
    "PolycmError",
    "EvalResult",
    "linear_grid",
    "log_grid",
    "EULER_GAMMA",
    "digamma",
    "polygamma",
    "KernelId",
    "KernelReport",
    "h",
    "kappa",
    "kernel_report",
    "omega",
    "omega_plus_one",
    "tanh_kernel",
    "CMReport",
    "FamilyIndex",
    "cm_check",
    "f_derivative",
    "f_value",
    "signed_derivative",
    "ClassificationEntry",
    "IntPolynomial",
    "SearchParams",
    "Witness",
    "binom_quantity",
    "bound_check",
    "classify",
    "discriminant_mn",
    "envelope",
    "expected_verdict",
    "find_nonmonotonic",
    "find_sign_change",
    "leading_term_sign",
    "p_derived",
    "p_printed",
    "q_derived",
    "q_printed",
    "BoundsSuiteReport",
    "InequalityResult",
    "bounds_suite",
    "polygamma_bounds_check",
    "psi_log_bounds_check",
    "__version__",
]
