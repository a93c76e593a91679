"""Verification-only routes that tests check the certified evaluators against.

Nothing in the library or the CLI imports this module, and it is the only
one that imports scipy, so ``import polycm`` never loads it.  It holds the
brute-force reference series (with guaranteed bounds), the Laplace
quadrature estimate of psi^(n) (no bound: it serves only the route-agreement
tolerance), and residuals of identities the certified routes must satisfy.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from . import checks
from .cm_engine import FamilyIndex, f_derivative, f_value
from .errors import CapabilityError, ConvergenceError, DomainError
from .evaluation import DEFAULT_PRECISION, EvalResult, PrecisionConfig, ulp
from .kernels import tanh_kernel
from .polygamma import (
    EULER_GAMMA,
    digamma,
    digamma_magnitude_estimate,
    magnitude_lower_bound,
    polygamma,
)

_EPS = 2.0 ** -52

# ---------------------------------------------------------------------------
# Reference series
# ---------------------------------------------------------------------------


def reference_polygamma(n: int, x: float, target: float = 1e-11) -> EvalResult:
    """Brute-force oracle: direct summation with integral-test midpoint tail.

    sum_{k>=K} (x+k)^-(n+1) lies in [I, I + f(K)] with I = (x+K)^-n / n the
    tail integral and f(K) the first omitted term; the midpoint I + f(K)/2 is
    taken, guaranteed error f(K)/2.  No recurrence, no acceleration.
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)
    fact = float(math.factorial(n))
    yK = (fact / target) ** (1.0 / (n + 1))
    K = int(max(64.0, math.ceil(yK - x) + 8))
    if K > 60_000_000:
        raise ConvergenceError(
            f"oracle target {target:g} needs {K} terms", best_bound=math.inf
        )
    with np.errstate(over="raise"):
        try:
            k = np.arange(K, dtype=np.float64)
            series = float(np.sum((x + k) ** (-(n + 1.0))))
        except FloatingPointError as exc:
            raise CapabilityError(f"oracle overflow at n={n}, x={x}") from exc
    if not math.isfinite(series):
        raise CapabilityError(f"oracle overflow at n={n}, x={x}")
    y = x + K
    integral = y ** (-float(n)) / n
    first_omitted = y ** (-(n + 1.0))
    if first_omitted < sys.float_info.min:
        # subnormal terms keep too few bits for the relative rounding charge
        raise CapabilityError(f"oracle terms underflow at n={n}, x={x}")
    total = fact * (series + integral + 0.5 * first_omitted)
    tail_err = fact * 0.5 * first_omitted
    rounding = (math.log2(K) + n / 2.0 + 8.0) * _EPS * total
    sign = 1.0 if n % 2 == 1 else -1.0
    return EvalResult(sign * total, tail_err + rounding)


def reference_digamma(x: float, target: float = 1e-11) -> EvalResult:
    """Brute-force digamma oracle: -gamma + sum (x-1)/((k+1)(k+x)), midpoint tail."""
    x = checks.positive_real("x", x)
    spread = max(abs(x - 1.0), 0.125)
    K = int(max(64.0, math.ceil(math.sqrt(spread / target))))
    if K > 60_000_000:
        raise ConvergenceError(
            f"oracle target {target:g} needs {K} terms", best_bound=math.inf
        )
    k = np.arange(K, dtype=np.float64)
    terms = (x - 1.0) / ((k + 1.0) * (k + x))
    series = float(np.sum(terms))
    gross = float(np.sum(np.abs(terms)))
    integral = math.log1p((x - 1.0) / (K + 1.0))
    first_omitted = (x - 1.0) / ((K + 1.0) * (K + x))
    value = series + integral + 0.5 * first_omitted - EULER_GAMMA
    err = abs(first_omitted) / 2.0 + (math.log2(K) + 8.0) * _EPS * (
        gross + abs(value) + 1.0
    )
    return EvalResult(value, err)


# ---------------------------------------------------------------------------
# Laplace quadrature
# ---------------------------------------------------------------------------


def _t_over_one_minus_exp(t: float) -> float:
    """t / (1 - e^-t), series-stabilized below the 2^-10 switch point.

    Truncation there is ~t^5/720 < 2^-60, far below the quadrature tolerance.
    """
    if t < 2.0**-10:
        return 1.0 + t / 2.0 + t * t / 12.0 - t**4 / 720.0
    return t / (-math.expm1(-t))


def polygamma_quadrature(n: int, x: float) -> float:
    """Estimate of psi^(n)(x) from its Laplace integral; no error bound.

    In u = x*t the integral is x^-n Integral_0^inf u^(n-1) e^-u kappa(u/x) du,
    whose peak sits at u = n and whose decay scale is 1 for every x, so the
    quadrature's sampling cannot miss it.  It is split at the peak and, when
    that comes first, at t = 1 (u = x); each piece is integrated to a
    relative tolerance of 1e-13.
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)
    n_log_x = n * math.log(x)

    def integrand(u: float) -> float:
        # one exp, so neither u^(n-1) nor x^-n can overflow on its own;
        # quad never samples u = 0
        return math.exp((n - 1) * math.log(u) - u - n_log_x) * _t_over_one_minus_exp(u / x)

    lo = min(x, float(n))
    total = 0.0
    for a, b in ((0.0, lo), (lo, float(n)), (float(n), math.inf)):
        if a < b:
            total += quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total if n % 2 == 1 else -total


# ---------------------------------------------------------------------------
# Identity residuals
# ---------------------------------------------------------------------------


def recurrence_residual(
    n: int, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> EvalResult:
    """Defect of psi^(n-1)(x+1) = psi^(n-1)(x) + (-1)^(n-1) (n-1)! / x^n.

    Returns the residual magnitude as value, with abs_error equal to the two
    evaluation bounds plus representation rounding of the correction term.
    A healthy implementation keeps value <= abs_error.
    """
    n = checks.integer("order", n, 1)
    x = checks.positive_real("x", x)
    order = n - 1
    if order == 0:
        eff = cfg.for_magnitude(digamma_magnitude_estimate(x))
        left, right = digamma(x + 1.0, eff), digamma(x, eff)
    else:
        eff = cfg.for_magnitude(magnitude_lower_bound(order, x))
        left, right = polygamma(order, x + 1.0, eff), polygamma(order, x, eff)
    corr = (-1.0) ** (n - 1) * math.factorial(n - 1) * x ** (-float(n))
    resid = abs(left.value - right.value - corr)
    bound = (
        left.abs_error
        + right.abs_error
        + (n / 2.0 + 3.0) * _EPS * abs(corr)
        + 2.0 * ulp(max(abs(left.value), abs(corr)))
    )
    return EvalResult(resid, bound)


def finite_difference_crosscheck(
    idx: FamilyIndex,
    order: int,
    x: float,
    step: float,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> float:
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
        * f_value(idx, x + (order / 2.0 - i) * step, cfg).value
        for i in range(order + 1)
    ]
    fd = math.fsum(nodes) / step**order
    return abs(fd - f_derivative(idx, order, x, cfg).value)


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
    cfg: PrecisionConfig = DEFAULT_PRECISION,
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
        vals = [f_value(idx, x + k, cfg) for k in range(N + 2)]
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


def shift_difference_kernel_check(
    x: float, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> float:
    """Residual of the two closed forms for f(x) - f(x+1) at index (1,2).

    Route (a): (2/x^2) (psi'(x) - 1/(2x^2) - 1/x).
    Route (b): (2/x^2) Integral_0^inf [(t/2)/tanh(t/2) - 1] e^(-xt) dt.
    Returns the larger of the two |difference vs f(x) - f(x+1)| residuals.
    """
    x = checks.positive_real("x", x)
    idx = FamilyIndex(1, 2)
    lhs = f_value(idx, x, cfg).value - f_value(idx, x + 1.0, cfg).value
    factor = 2.0 / (x * x)

    trig = polygamma(1, x, cfg.for_magnitude(magnitude_lower_bound(1, x))).value
    closed = factor * (trig - 1.0 / (2.0 * x * x) - 1.0 / x)

    # truncation: integrand <= (t/2) e^(-xt) past T
    T = max(2.0, 20.0 / x)
    while math.exp(-x * T) * (T / (2.0 * x) + 1.0 / (2.0 * x * x)) > 1e-13 and T < 1e5:
        T *= 2.0
    val, est = quad(
        lambda t: tanh_kernel(t).value * math.exp(-x * t),
        0.0,
        T,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=400,
    )
    if est > 1e-9 * (1.0 + abs(val)):
        raise ConvergenceError(
            f"shift-difference quadrature did not converge at x={x}", best_bound=est
        )
    via_kernel = factor * val
    return max(abs(lhs - closed), abs(lhs - via_kernel))


def _gamma_value(r: float) -> float:
    """Gamma(r): factorial for integer r, else quadrature of the defining
    integral of t^(r-1) e^-t over (0, inf)."""
    if float(r).is_integer():
        return float(math.factorial(int(r) - 1))
    val, est = quad(lambda t: t ** (r - 1.0) * math.exp(-t), 0.0, math.inf,
                    epsabs=1e-12, epsrel=1e-12, limit=400)
    if est > 1e-8 * (1.0 + abs(val)):
        raise ConvergenceError(f"gamma quadrature did not converge at r={r}",
                               best_bound=est)
    return val


def laplace_power_identity(r: float, x: float) -> float:
    """Residual |x^-r - (1/Gamma(r)) Integral_0^inf t^(r-1) e^(-xt) dt|.

    Checks the power-law Laplace pair numerically; stays below 1e-9 for
    moderate r and x.
    """
    r = checks.positive_real("exponent r", r)
    x = checks.positive_real("x", x)
    gamma_r = _gamma_value(r)
    val, est = quad(lambda t: t ** (r - 1.0) * math.exp(-x * t), 0.0, math.inf,
                    epsabs=1e-13, epsrel=1e-12, limit=400)
    if est > 1e-8 * (1.0 + abs(val)):
        raise ConvergenceError(f"Laplace quadrature did not converge at r={r}, x={x}",
                               best_bound=est)
    return abs(x ** (-r) - val / gamma_r)
