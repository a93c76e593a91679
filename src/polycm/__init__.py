"""Verification-grade numerics for the family f = [psi^(m)]^2 + psi^(n).

Every evaluation returns an EvalResult carrying a guaranteed absolute error
bound; every verdict (monotonicity, sign, complete monotonicity, inequality
strictness) is only asserted when its margin clears the relevant bounds.
The verification-only routes that tests compare against are in
tests/reference.py, outside this package.

`import polycm` runs only the psi layer (errors, checks, evaluation,
polygamma).  Each other name in _EXPORTS imports its submodule on first
access (PEP 562) and is then bound here like an eager import.
"""

from .errors import CapabilityError, DomainError, PolycmError
from .evaluation import EvalResult, linear_grid, log_grid
# eager: the function shares its submodule's name, and importing a
# submodule binds that name on the package, so it must be bound first
from .polygamma import EULER_GAMMA, digamma, polygamma

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(("CapabilityError", "DomainError", "PolycmError"), "errors"),
    **dict.fromkeys(("EvalResult", "linear_grid", "log_grid"), "evaluation"),
    **dict.fromkeys(("EULER_GAMMA", "digamma", "polygamma"), "polygamma"),
    **dict.fromkeys((
        "KernelId", "KernelReport", "h", "kappa", "kernel_report", "omega",
        "omega_plus_one", "tanh_kernel",
    ), "kernels"),
    **dict.fromkeys((
        "CMReport", "FamilyIndex", "cm_check", "f_derivative", "f_value",
        "signed_derivative",
    ), "cm_engine"),
    **dict.fromkeys((
        "ClassificationEntry", "IntPolynomial", "SearchParams", "Witness",
        "binom_quantity", "bound_check", "classify", "discriminant_mn",
        "envelope", "expected_verdict", "find_nonmonotonic",
        "find_sign_change", "leading_term_sign", "p_derived", "p_printed",
        "q_derived", "q_printed",
    ), "classifier"),
    **dict.fromkeys((
        "BoundsSuiteReport", "InequalityResult", "bounds_suite",
        "polygamma_bounds_check", "psi_log_bounds_check",
    ), "inequalities"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
