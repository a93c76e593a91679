"""Verification-only routes that tests check the certified evaluators against.

It lives with the tests, outside the installed package, and it is the only
module that imports mpmath, so ``import polycm`` never loads it.  It holds the
brute-force reference series (with guaranteed bounds), the Laplace
quadrature estimate of psi^(n) (no bound: it serves only the route-agreement
tolerance), the EvalResult sum that cm_engine's assembly must match, and
residuals of identities the certified routes must satisfy.
It runs on the standard library and mpmath alone.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from mpmath import fp

from polycm import checks
from polycm.cm_engine import FamilyIndex, f_derivative, f_value
from polycm.errors import CapabilityError, DomainError, PolycmError
from polycm.evaluation import EvalResult, ulp
from polycm.kernels import tanh_kernel
from polycm.polygamma import EULER_GAMMA, digamma, polygamma

_EPS = 2.0 ** -52
_MAX_TERMS = 60_000_000


class ConvergenceError(PolycmError, ArithmeticError):
    """A verification route could not meet its requested tolerance."""


# ---------------------------------------------------------------------------
# Reference series
# ---------------------------------------------------------------------------


def _tail_terms(
    bracket: Callable[[int], tuple[float, float]], scale: float, target: float
) -> tuple[int, float, float]:
    """(K, midpoint, charge) for the first K = 64 * 2^j whose tail bracket
    meets target.

    bracket(K) gives the two ends of an interval that holds the tail from
    term K on, in either order.  The charge is scale times half the width
    plus 4 eps of each end, which covers the rounding of the width and of
    the midpoint; the caller still charges the ends' relative rounding.
    """
    K = 64
    while True:
        a, b = bracket(K)
        charge = scale * (abs(b - a) / 2.0 + 4.0 * _EPS * (abs(a) + abs(b)))
        if charge <= target:
            return K, (a + b) / 2.0, charge
        K *= 2
        if K > _MAX_TERMS:
            raise ConvergenceError(f"oracle target {target:g} needs more than "
                                   f"{_MAX_TERMS} terms (best charge {charge:g})")


def reference_polygamma(n: int, x: float, target: float = 1e-11) -> EvalResult:
    """Brute-force oracle: direct summation with a convexity tail bracket.

    The terms f(k) = (x+k)^-(n+1) are convex in k, so the trapezoid and
    midpoint (Hermite-Hadamard) inequalities put sum_{k>=K} f(k) in
    [I(K) + f(K)/2, I(K - 1/2)], with I(a) = (x+a)^-n / n the tail
    integral.  The midpoint is taken, with half the width as its error, and
    K doubles from 64 until that meets target.  No recurrence, no
    acceleration.
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)

    def bracket(K: int) -> tuple[float, float]:
        y = x + K
        return y ** -n / n + y ** -(n + 1.0) / 2.0, (x + (K - 0.5)) ** -n / n

    try:
        fact = float(math.factorial(n))
        K, tail, tail_err = _tail_terms(bracket, fact, target)
        series = math.fsum([(x + k) ** -(n + 1.0) for k in range(K)])
    except OverflowError as exc:
        raise CapabilityError(f"oracle overflow at n={n}, x={x}") from exc
    if (x + K) ** -(n + 1.0) < sys.float_info.min:
        # subnormal terms keep too few bits for the relative rounding charge
        raise CapabilityError(f"oracle terms underflow at n={n}, x={x}")
    total = fact * (series + tail)
    if not math.isfinite(total):
        raise CapabilityError(f"oracle overflow at n={n}, x={x}")
    rounding = (math.log2(K) + n / 2.0 + 8.0) * _EPS * total
    sign = 1.0 if n % 2 == 1 else -1.0
    return EvalResult(sign * total, tail_err + rounding)


def reference_digamma(x: float, target: float = 1e-11) -> EvalResult:
    """Brute-force digamma oracle: -gamma + sum (x-1)/((k+1)(k+x)).

    The same convexity bracket as `reference_polygamma`, for the convex
    g(k) = 1/((k+1)(k+x)), times x - 1: the tail from term K on lies
    between log1p((x-1)/(K+1)) + t_K/2 and log1p((x-1)/(K+1/2)), with t_K
    the first omitted term (the ends swap when x < 1).
    """
    x = checks.positive_real("x", x)
    d = x - 1.0

    def bracket(K: int) -> tuple[float, float]:
        first_omitted = d / ((K + 1.0) * (K + x))
        return math.log1p(d / (K + 1.0)) + first_omitted / 2.0, math.log1p(d / (K + 0.5))

    K, tail, tail_err = _tail_terms(bracket, 1.0, target)
    series = math.fsum([d / ((k + 1.0) * (k + x)) for k in range(K)])
    value = series + tail - EULER_GAMMA
    # every term has the sign of x - 1, so |series| is their gross sum
    err = tail_err + (math.log2(K) + 8.0) * _EPS * (abs(series) + abs(value) + 1.0)
    return EvalResult(value, err)


# ---------------------------------------------------------------------------
# Laplace quadrature
# ---------------------------------------------------------------------------


def polygamma_quadrature(n: int, x: float) -> float:
    """Estimate of psi^(n)(x) from its Laplace integral; no error bound.

    In u = x*t the integral is Gamma(n) x^-n Integral_0^inf g_n(u)
    kappa(u/x) du, with g_n the Gamma(n) density, which integrates to one,
    and kappa >= 1.  So the integral is never small, whatever n and x, and
    mpmath's absolute tolerance cannot stop early; without the factor
    Gamma(n) x^-n taken out it does, by 1e-2 relative at (64, 1e3).  The peak
    sits at u = n with decay scale 1, so the quadrature cannot miss it.  It
    is split at the peak and, when that comes first, at t = 1 (u = x).
    mpmath's tanh-sinh rule runs in double precision (``mpmath.fp``).
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)
    log_gamma_n = math.lgamma(n)

    def integrand(u: float) -> float:
        # one exp, so u^(n-1) cannot overflow on its own; u = 0 is never sampled
        s = u / x
        return math.exp((n - 1) * math.log(u) - u - log_gamma_n) * s / -math.expm1(-s)

    points = [0.0, x, n, math.inf] if x < n else [0.0, n, math.inf]
    total = fp.quad(integrand, points) * math.exp(log_gamma_n - n * math.log(x))
    return total if n % 2 == 1 else -total


# ---------------------------------------------------------------------------
# Reference sum
# ---------------------------------------------------------------------------


def result_sum(parts: list[EvalResult]) -> EvalResult:
    """Exactly-rounded sum of values; error bounds add, and the half ulp
    math.fsum rounds the value by is charged as one full ulp.  The
    reference that cm_engine._assemble matches bit for bit."""
    v = math.fsum([p.value for p in parts])
    return EvalResult(v, math.fsum([p.abs_error for p in parts]) + ulp(v))


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def recurrence_residual(n: int, x: float) -> EvalResult:
    """Defect of psi^(n-1)(x+1) = psi^(n-1)(x) + (-1)^(n-1) (n-1)! / x^n.

    Returns the residual magnitude as value, with abs_error equal to the two
    evaluation bounds plus representation rounding of the correction term.
    A healthy implementation keeps value <= abs_error.
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)
    order = n - 1
    if order == 0:
        left, right = digamma(x + 1.0), digamma(x)
    else:
        left, right = polygamma(order, x + 1.0), polygamma(order, x)
    corr = (-1.0) ** (n - 1) * math.factorial(n - 1) * x ** (-float(n))
    resid = abs(left.value - right.value - corr)
    bound = (
        left.abs_error
        + right.abs_error
        + (n / 2.0 + 3.0) * _EPS * abs(corr)
        + 2.0 * ulp(max(abs(left.value), abs(corr)))
    )
    return EvalResult(resid, bound)


def finite_difference_crosscheck(idx: FamilyIndex, order: int, x: float, step: float) -> float:
    """|central difference of f at the given order - closed-form f^(order)|.

    Central stencil: step^-l * sum_i (-1)^i C(l,i) f(x + (l/2 - i)*step),
    O(step^2) accurate for smooth f.  The discrepancy should be on the order
    of step^2 times a local derivative bound plus rounding amplified by
    step^-l.
    """
    order = checks.integer("stencil order", order, 1)
    step = checks.positive_real("step", step)
    if x - order * step / 2.0 <= 0.0:
        raise DomainError(
            f"stencil leaves the domain: x={x}, order={order}, step={step}"
        )
    nodes = [
        (-1.0) ** i * math.comb(order, i)
        * f_value(idx, x + (order / 2.0 - i) * step).value
        for i in range(order + 1)
    ]
    fd = math.fsum(nodes) / step**order
    return abs(fd - f_derivative(idx, order, x).value)


class TelescopeReport(NamedTuple):
    index: FamilyIndex
    N: int
    xs: tuple[float, ...]
    residuals: tuple[float, ...]          # |partial sum - (f(x) - f(x+N+1))|
    residual_bounds: tuple[float, ...]    # rounding-only bound on each residual
    remainders: tuple[EvalResult, ...]    # f(x+N+1) per x
    max_residual: float
    identity_ok: bool
    tolerance: float


def telescoping_check(
    idx: FamilyIndex,
    N: int,
    grid,
    tolerance: float = 1e-10,
) -> TelescopeReport:
    """Verify sum_{k=0..N} [f(x+k) - f(x+k+1)] = f(x) - f(x+N+1) pointwise.

    The partial sum is assembled from the same evaluated values as the right
    side, so the residual is pure rounding: at most ~(N+2) ulps of the
    largest |f| involved, independent of evaluation error.
    """
    N = checks.integer("N", N, 1)
    pts = checks.grid(grid)
    residuals: list[float] = []
    bounds: list[float] = []
    remainders: list[EvalResult] = []
    for x in pts:
        vals = [f_value(idx, x + k) for k in range(N + 2)]
        diffs = [vals[k].value - vals[k + 1].value for k in range(N + 1)]
        partial = math.fsum(diffs)
        direct = vals[0].value - vals[N + 1].value
        residuals.append(abs(partial - direct))
        peak = max(abs(v.value) for v in vals)
        bounds.append((N + 3.0) * ulp(peak))
        remainders.append(vals[N + 1])
    max_residual = max(residuals)
    return TelescopeReport(
        index=idx,
        N=N,
        xs=pts,
        residuals=tuple(residuals),
        residual_bounds=tuple(bounds),
        remainders=tuple(remainders),
        max_residual=max_residual,
        identity_ok=max_residual <= tolerance,
        tolerance=tolerance,
    )


def shift_difference_kernel_check(x: float) -> float:
    """Residual of the two closed forms for f(x) - f(x+1) at index (1,2).

    Route (a): (2/x^2) (psi'(x) - 1/(2x^2) - 1/x).
    Route (b): (2/x^2) Integral_0^inf [(t/2)/tanh(t/2) - 1] e^(-xt) dt.
    Returns the larger of the two |difference vs f(x) - f(x+1)| residuals.
    """
    x = checks.positive_real("x", x)
    idx = FamilyIndex(1, 2)
    lhs = f_value(idx, x).value - f_value(idx, x + 1.0).value
    factor = 2.0 / (x * x)

    trig = polygamma(1, x).value
    closed = factor * (trig - 1.0 / (2.0 * x * x) - 1.0 / x)

    # truncation: integrand <= (t/2) e^(-xt) past T
    T = max(2.0, 20.0 / x)
    while math.exp(-x * T) * (T / (2.0 * x) + 1.0 / (2.0 * x * x)) > 1e-13 and T < 1e5:
        T *= 2.0
    val, est = fp.quad(lambda t: tanh_kernel(t).value * math.exp(-x * t), [0.0, T], error=True)
    if est > 1e-9 * (1.0 + abs(val)):
        raise ConvergenceError(
            f"shift-difference quadrature did not converge at x={x}: error estimate {est:g}"
        )
    via_kernel = factor * val
    return max(abs(lhs - closed), abs(lhs - via_kernel))


def laplace_power_identity(r: float, x: float) -> float:
    """Residual |x^-r - (1/Gamma(r)) Integral_0^inf t^(r-1) e^(-xt) dt|.

    Checks the power-law Laplace pair numerically; stays below 1e-9 for
    moderate r and x.
    """
    r = checks.positive_real("exponent r", r)
    x = checks.positive_real("x", x)
    val, est = fp.quad(lambda t: t ** (r - 1.0) * math.exp(-x * t), [0.0, math.inf], error=True)
    if est > 1e-8 * (1.0 + abs(val)):
        raise ConvergenceError(f"Laplace quadrature did not converge at r={r}, x={x}: "
                               f"error estimate {est:g}")
    return abs(x ** (-r) - val / math.gamma(r))
