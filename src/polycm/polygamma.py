"""Digamma/polygamma evaluation with guaranteed absolute error bounds.

Three mutually independent routes are provided and cross-validated in tests:

* digamma / polygamma: explicit series terms plus an Euler-Maclaurin tail
  correction whose remainder is bounded rigorously by |B_2p|/(2p)! times the
  integral of |g^(2p)| (classical periodized-Bernoulli-polynomial bound; the
  integrand's derivatives are one-signed, so the integral telescopes to a
  closed form).
* polygamma_quadrature: the Laplace-integral representation
      psi^(n)(x) = (-1)^(n+1) * Integral_0^inf t^n e^(-xt) / (1 - e^(-t)) dt
  with an explicit truncation bound and library quadrature on the finite part.
* reference_digamma / reference_polygamma: deliberately naive direct
  summation with a midpoint integral-test tail bracket.  No recurrence, no
  Bernoulli terms.  Slow but independent; tests use these as the oracle for
  frozen expected values.

Sign convention: psi^(n) has sign (-1)^(n+1) on (0, inf); internals work with
the positive magnitude and apply the sign at the end.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import checks
from .errors import CapabilityError, ConvergenceError
from .evaluation import EvalResult, PrecisionConfig, DEFAULT_PRECISION, ulp

# Euler's constant to 50 digits; validated at test time against the
# slowly-converging defining series with an integral-test tail bracket.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

# Order 0 means digamma; n >= 1 selects the n-th derivative of digamma.
PolyOrder = int

_EPS = 2.0 ** -52

# Bernoulli numbers B_2 .. B_16 (exact).
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
}
_MAX_EM_PAIRS = 8  # remainder bound uses B_16 at most

# Polygamma order beyond which factorials/powers routinely overflow double
# precision for ordinary grid arguments; derivative-order caps downstream sit
# well below this.
_HARD_ORDER_CAP = 120

# Switch explicit summation from math.fsum to numpy past this many terms.
_FSUM_LIMIT = 8192

# Powers of the tail argument below this are subnormal: they keep too few
# significant bits to carry a value or a remainder bound.
_TINY = sys.float_info.min


def _validate_order(n: int, minimum: int) -> int:
    n = checks.integer("order", n, minimum)
    if n > _HARD_ORDER_CAP:
        raise CapabilityError(
            f"order {n} exceeds the double-precision capability cap {_HARD_ORDER_CAP}"
        )
    return n


def magnitude_lower_bound(n: int, x: float) -> float:
    """Closed-form lower bound on |psi^(n)(x)| for n >= 1.

    (n-1)!/x^n + n!/(2 x^(n+1)); used to adapt absolute budgets to scale.
    Returns inf when the magnitude overflows double precision.
    """
    try:
        t = math.factorial(n - 1) * x ** (-float(n))
        return t + math.factorial(n) * x ** (-(n + 1.0)) / 2.0
    except OverflowError:
        return math.inf


def digamma_magnitude_estimate(x: float) -> float:
    """Rough scale of |psi(x)| for budget adaptation (never used in verdicts)."""
    return abs(math.log(x)) + 1.0 / x + 1.0


# ---------------------------------------------------------------------------
# Euler-Maclaurin tail machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _em_coeff(n: int, i: int) -> float:
    """B_2i * (n + 2i - 1)! / (2i)!  as a float (exact rational, then rounded)."""
    f = _BERNOULLI[2 * i] * Fraction(math.factorial(n + 2 * i - 1), math.factorial(2 * i))
    return float(f)


def _polygamma_tail(n: int, y: float) -> tuple[list[float], float]:
    """Euler-Maclaurin tail of n! * sum_{k>=0} (y+k)^-(n+1), with remainder bound.

    terms[0] is the integral part (n-1)!/y^n, terms[1] the half-sample
    n!/(2 y^(n+1)), the rest the Bernoulli corrections up to the pair count
    that minimizes the remainder bound.  Negative exponents throughout so
    extreme y underflows instead of raising OverflowError.  A subnormal y^-n
    has lost the value's bits: CapabilityError.  An underflowed half-sample
    term is charged in full (n! * _TINY/2), the p = 1 remainder power is at
    least _TINY, and the pair search stops at the first subnormal power.
    """
    inv_pow = y ** (-float(n))
    if inv_pow < _TINY:
        raise CapabilityError(f"y^-{n} underflows double precision at y={y}")
    inv_y = 1.0 / y
    base = [
        math.factorial(n - 1) * inv_pow,
        math.factorial(n) * inv_pow * inv_y / 2.0,
    ]
    best_p, best_bound = 1, abs(_em_coeff(n, 1)) * max(y ** (-(n + 2.0)), _TINY)
    for p in range(2, _MAX_EM_PAIRS + 1):
        power = y ** (-(n + 2.0 * p))
        if power < _TINY:
            break
        b = abs(_em_coeff(n, p)) * power
        if b < best_bound:
            best_p, best_bound = p, b
    if inv_pow * inv_y < _TINY:
        best_bound += math.factorial(n) * _TINY / 2.0
    terms = base + [
        _em_coeff(n, i) * y ** (-(n + 2.0 * i)) for i in range(1, best_p)
    ]
    return terms, best_bound


def _digamma_tail(x: float, K: int) -> tuple[list[float], float]:
    """Euler-Maclaurin tail of sum_{k>=K} [1/(k+1) - 1/(k+x)] plus bound."""
    a, b = K + 1.0, K + x
    # integral part ln((K+x)/(K+1)), written to survive x near 1
    integral = math.log1p((x - 1.0) / a)
    terms = [integral, (1.0 / a - 1.0 / b) / 2.0]
    inner = min(a, b)
    best_p, best_bound = 1, abs(float(_BERNOULLI[2])) / 2.0 * inner**-2
    for p in range(2, _MAX_EM_PAIRS + 1):
        bd = abs(float(_BERNOULLI[2 * p])) / (2 * p) * inner ** (-2.0 * p)
        if bd < best_bound:
            best_p, best_bound = p, bd
    for i in range(1, best_p):
        c = float(_BERNOULLI[2 * i]) / (2 * i)
        terms.append(c * (a ** (-2.0 * i) - b ** (-2.0 * i)))
    return terms, best_bound


# ---------------------------------------------------------------------------
# Series route (production)
# ---------------------------------------------------------------------------


def _explicit_polygamma_sum(n: int, x: float, K: int, fact_f: float) -> tuple[float, float]:
    """(sum, rounding charge) of fact_f * (x+k)^-(n+1) for k < K; terms positive."""
    if K == 0:
        return 0.0, 0.0
    if K <= _FSUM_LIMIT:
        s = math.fsum(fact_f * (x + k) ** (-(n + 1.0)) for k in range(K))
        extra = 0.0
    else:
        arr = fact_f * (x + np.arange(K, dtype=np.float64)) ** (-(n + 1.0))
        s = float(np.sum(arr))
        extra = math.log2(K)  # pairwise-summation depth
    # per-term relative error: pow amplification (n+1)/2 eps on the rounded
    # base, ~1 ulp for pow itself, 1/2 ulp each for factorial and product
    charge = ((n + 1.0) / 2.0 + 3.0 + extra) * _EPS * s
    return s, charge


@lru_cache(maxsize=200_000)
def _polygamma_cached(n: int, x: float, cfg: PrecisionConfig) -> EvalResult:
    fact_f = float(math.factorial(n))
    try:
        probe = fact_f * x ** (-(n + 1.0))
    except OverflowError as exc:
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision") from exc
    if not math.isfinite(probe):
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision")

    budget = cfg.target_abs_error
    K = max(
        0,
        math.ceil(cfg.recurrence_shift_target - x),
        math.ceil(24.0 + 0.55 * n - x),
    )
    best_bound = math.inf
    while True:
        if K > cfg.max_series_terms:
            raise ConvergenceError(
                f"psi^({n})({x}): budget {budget:g} unreachable within "
                f"{cfg.max_series_terms} series terms",
                best_bound=best_bound,
            )
        y = x + K
        s_expl, charge_expl = _explicit_polygamma_sum(n, x, K, fact_f)
        tail_terms, remainder = _polygamma_tail(n, y)
        tail_abs = math.fsum(abs(t) for t in tail_terms)
        total = math.fsum([s_expl] + tail_terms)
        rounding = (
            charge_expl
            + ((n + 16.0) / 2.0 + 4.0) * _EPS * tail_abs
            + 2.0 * ulp(total)
        )
        abs_error = remainder + rounding
        best_bound = min(best_bound, abs_error)
        if abs_error <= budget:
            sign = 1.0 if n % 2 == 1 else -1.0
            return EvalResult(sign * total, abs_error)
        if remainder <= 0.05 * rounding:
            # more terms cannot beat the rounding floor
            raise ConvergenceError(
                f"psi^({n})({x}): budget {budget:g} below the double-precision "
                f"floor; best achievable bound {abs_error:g}",
                best_bound=best_bound,
            )
        K = max(K + 16, int(1.5 * K))


def polygamma(n: PolyOrder, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION) -> EvalResult:
    """psi^(n)(x) for n >= 1 with abs_error <= cfg.target_abs_error.

    Series route: psi^(n)(x) = (-1)^(n+1) n! sum_{k>=0} (x+k)^-(n+1), summed
    explicitly past the recurrence shift target (summing the first K terms is
    the recurrence shift: each term strips one pole) and finished with an
    Euler-Maclaurin tail whose remainder bound is folded into abs_error.
    Raises ConvergenceError when the budget is unreachable, e.g. an absolute
    1e-12 for a quantity of magnitude 1e22.
    """
    n = _validate_order(n, minimum=1)
    x = checks.positive_real("x", x)
    return _polygamma_cached(n, x, cfg)


@lru_cache(maxsize=50_000)
def _digamma_cached(x: float, cfg: PrecisionConfig) -> EvalResult:
    budget = cfg.target_abs_error
    K = max(32, math.ceil(cfg.recurrence_shift_target))
    best_bound = math.inf
    while True:
        if K > cfg.max_series_terms:
            raise ConvergenceError(
                f"psi({x}): budget {budget:g} unreachable within "
                f"{cfg.max_series_terms} series terms",
                best_bound=best_bound,
            )
        if K <= _FSUM_LIMIT:
            s_terms = math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(K))
            gross_uv = math.fsum(1.0 / (k + 1.0) + 1.0 / (k + x) for k in range(K))
            depth = 0.0
        else:
            k = np.arange(K, dtype=np.float64)
            u, v = 1.0 / (k + 1.0), 1.0 / (k + x)
            s_terms = float(np.sum(u - v))
            gross_uv = float(np.sum(u + v))
            depth = math.log2(K)
        tail_terms, remainder = _digamma_tail(x, K)
        total = math.fsum([s_terms, -EULER_GAMMA] + tail_terms)
        tail_rest = math.fsum(abs(t) for t in tail_terms[1:])
        rounding = (
            (0.6 + depth) * _EPS * (gross_uv + abs(s_terms))
            + 2.5 * _EPS * abs(tail_terms[0])
            + 20.0 * _EPS * tail_rest
            + ulp(EULER_GAMMA)
            + 2.0 * ulp(total)
        )
        abs_error = remainder + rounding
        best_bound = min(best_bound, abs_error)
        if abs_error <= budget:
            return EvalResult(total, abs_error)
        if remainder <= 0.05 * rounding:
            raise ConvergenceError(
                f"psi({x}): budget {budget:g} below the double-precision floor; "
                f"best achievable bound {abs_error:g}",
                best_bound=best_bound,
            )
        K = max(K + 16, int(1.5 * K))


def digamma(x: float, cfg: PrecisionConfig = DEFAULT_PRECISION) -> EvalResult:
    """psi(x) via the series -gamma + sum_{k>=0} [1/(k+1) - 1/(k+x)].

    The explicit prefix of the series is the recurrence shift above
    cfg.recurrence_shift_target; the tail is closed with an Euler-Maclaurin
    correction whose remainder bound lands in abs_error.
    """
    x = checks.positive_real("x", x)
    return _digamma_cached(x, cfg)


def polygamma_any(order: PolyOrder, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION) -> EvalResult:
    """Dispatch on PolyOrder: 0 -> digamma, n >= 1 -> polygamma."""
    order = _validate_order(order, minimum=0)
    return digamma(x, cfg) if order == 0 else polygamma(order, x, cfg)


# ---------------------------------------------------------------------------
# Reference oracles (naive, independent; the oracle side of dual-route tests)
# ---------------------------------------------------------------------------


def reference_polygamma(n: PolyOrder, x: float, target: float = 1e-11) -> EvalResult:
    """Brute-force oracle: direct summation with integral-test midpoint tail.

    sum_{k>=K} (x+k)^-(n+1) lies in [I, I + f(K)] with I = (x+K)^-n / n the
    tail integral and f(K) the first omitted term; the midpoint I + f(K)/2 is
    taken, guaranteed error f(K)/2.  No recurrence, no acceleration.
    """
    n = _validate_order(n, minimum=1)
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
# Laplace quadrature route
# ---------------------------------------------------------------------------


def _t_over_one_minus_exp(t: float) -> float:
    """t / (1 - e^-t), series-stabilized below the 2^-10 switch point.

    Truncation there is ~t^5/720 < 2^-60, far below the quadrature estimate.
    """
    if t < 2.0**-10:
        return 1.0 + t / 2.0 + t * t / 12.0 - t**4 / 720.0
    return t / (-math.expm1(-t))


def _laplace_tail_bound(n: int, x: float, T: float) -> float:
    """Upper bound on Integral_T^inf t^n e^(-xt)/(1-e^(-t)) dt for T >= 1.

    1/(1-e^-t) <= 1/(1-e^-T) and the rest integrates to the upper incomplete
    gamma Gamma(n+1, xT)/x^(n+1) = n! e^(-xT) sum_{j<=n} (xT)^j/j! / x^(n+1).
    """
    s = x * T
    partial, term = 1.0, 1.0
    for j in range(1, n + 1):
        term *= s / j
        partial += term
    try:
        decay = math.exp(-s) * partial
    except OverflowError:
        decay = 0.0
    return (1.0 / -math.expm1(-T)) * math.factorial(n) * decay * x ** (-(n + 1.0))


def polygamma_quadrature(
    n: PolyOrder, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> EvalResult:
    """psi^(n)(x) via its Laplace integral, split at t = 1.

    abs_error = explicit truncation bound + 4x the library quadrature error
    estimates (estimates, not hard guarantees; the inflation plus the series
    cross-check in tests keep the figure honest).
    """
    from scipy.integrate import quad  # verification only: keeps scipy off the import path
    n = _validate_order(n, minimum=1)
    x = checks.positive_real("x", x)
    mag = magnitude_lower_bound(n, x)
    if not math.isfinite(mag):
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision")
    budget = max(cfg.target_abs_error, mag * 1e-13)

    T = max(2.0, (n + 5.0) / x)
    tail = _laplace_tail_bound(n, x, T)
    while tail > budget / 8.0 and T < 1e6:
        T *= 2.0
        tail = _laplace_tail_bound(n, x, T)

    def integrand(t: float) -> float:
        return t ** (n - 1) * _t_over_one_minus_exp(t) * math.exp(-x * t)

    epsabs = budget / 8.0
    i1, e1 = quad(integrand, 0.0, 1.0, epsabs=epsabs, epsrel=1e-12, limit=200)
    i2, e2 = quad(integrand, 1.0, T, epsabs=epsabs, epsrel=1e-12, limit=400)
    total = i1 + i2
    sign = 1.0 if n % 2 == 1 else -1.0
    abs_error = tail + 4.0 * (e1 + e2) + 8.0 * _EPS * abs(total)
    return EvalResult(sign * total, abs_error)


# ---------------------------------------------------------------------------
# Recurrence residual
# ---------------------------------------------------------------------------


def recurrence_residual(
    n: PolyOrder, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> EvalResult:
    """Defect of psi^(n-1)(x+1) = psi^(n-1)(x) + (-1)^(n-1) (n-1)! / x^n.

    Returns the residual magnitude as value, with abs_error equal to the two
    evaluation bounds plus representation rounding of the correction term.
    A healthy implementation keeps value <= abs_error.
    """
    n = _validate_order(n, minimum=1)
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
