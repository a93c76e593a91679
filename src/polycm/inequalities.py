"""Double-inequality checks for digamma and polygamma magnitudes.

    ln x - 1/x  <  psi(x)        <  ln x - 1/(2x)
    (k-1)!/x^k + k!/(2x^(k+1))  <  |psi^(k)(x)|  <  (k-1)!/x^k + k!/x^(k+1)

Both are strict on (0, inf).  Each margin is an EvalResult with its own
bound, and a check passes only when both margins are certified positive by
certified_sign(2.0), so numeric noise can never fake strictness.  The suite
reads the failed rows' margins at that same factor 2 for its refutations
and undecided points.  The polygamma margins are exact: exact.minus_rational
rounds |psi^(k)| less each rational bound once.  The upper digamma margin
decays like 1/(12 x^2), which is why the log-bound margins are assembled
with fsum instead of chains of subtractions.  digamma is polygamma's n = 0
case and neither takes an error budget: each margin is weighed against the
bound that one closed series guarantees.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import checks
from .evaluation import EvalResult, decide, ulp
from .exact import minus_rational
from .polygamma import digamma, polygamma

_EPS = 2.0 ** -52


class InequalityResult(NamedTuple):
    """One bound check at (k, x); k = 0 is the digamma log-bound pair.

    margins are (middle - lower, upper - middle), each carrying its own
    bound; passed requires both to be certified positive at factor 2.
    """

    k: int
    x: float
    lower: float
    middle: EvalResult
    upper: float
    margins: tuple[EvalResult, EvalResult]
    passed: bool


def psi_log_bounds_check(x: float) -> InequalityResult:
    """ln x - 1/x < psi(x) < ln x - 1/(2x), margins demanded strict.

    The upper margin approaches 1/(12x^2) for large x; computing it as
    fsum([-psi, ln x, -1/(2x)]) keeps the rounding at a few ulps of ln x so
    the shrinking margin still clears the error bar.
    """
    x = checks.positive_real("x", x)
    mid = digamma(x)
    lnx = math.log(x)
    inv = 1.0 / x
    bound_rounding = 3.0 * _EPS * (abs(lnx) + inv) + 2.0 * ulp(max(abs(mid.value), 1.0))
    error = mid.abs_error + bound_rounding
    margins = (EvalResult(math.fsum([mid.value, -lnx, inv]), error),
               EvalResult(math.fsum([lnx, -0.5 * inv, -mid.value]), error))
    return InequalityResult(
        k=0,
        x=x,
        lower=lnx - inv,
        middle=mid,
        upper=lnx - 0.5 * inv,
        margins=margins,
        passed=all(m.certified_sign(2.0) == 1 for m in margins),
    )


def polygamma_bounds_check(k: int, x: float) -> InequalityResult:
    """(k-1)!/x^k + k!/(2x^(k+1)) < |psi^(k)(x)| < same + k!/x^(k+1)."""
    k = checks.integer("order k", k, 1)
    x = checks.positive_real("x", x)
    mid = abs(polygamma(k, x))
    # exact over one integer denominator den = 2 a^(k+1), where x = a/b:
    # (k-1)!/x^k = 2 (k-1)! a b^k / den and k!/(2 x^(k+1)) = k! b^(k+1) / den;
    # int / int rounds each exact quotient once
    a, b = x.as_integer_ratio()
    den = 2 * a ** (k + 1)
    half_step = math.factorial(k) * b ** (k + 1)
    lower_num = 2 * math.factorial(k - 1) * a * b**k + half_step
    upper_num = lower_num + half_step
    margins = (minus_rational(mid, lower_num, den), -minus_rational(mid, upper_num, den))
    return InequalityResult(
        k=k,
        x=x,
        lower=lower_num / den,
        middle=mid,
        upper=upper_num / den,
        margins=margins,
        passed=all(m.certified_sign(2.0) == 1 for m in margins),
    )


class BoundsSuiteReport(NamedTuple):
    k_max: int
    grid: tuple[float, ...]
    results: tuple[InequalityResult, ...]
    failures: tuple[InequalityResult, ...]
    min_lower_margin: float
    min_upper_margin: float
    refuted: bool  # a failed row's margin certified negative
    undecided: tuple[float, ...]  # x of the failed rows' undecided margins


def bounds_suite(k_max: int, grid) -> BoundsSuiteReport:
    """Cross product of both checks: k = 0 rows are the digamma log bounds,
    k = 1..k_max the polygamma bounds, each at every grid point."""
    k_max = checks.integer("k_max", k_max, 1)
    pts = checks.grid(grid)
    results: list[InequalityResult] = []
    for x in pts:
        results.append(psi_log_bounds_check(x))
    for k in range(1, k_max + 1):
        for x in pts:
            results.append(polygamma_bounds_check(k, x))
    failures = tuple(r for r in results if not r.passed)
    refuted, undecided = decide((r.x, m.certified_sign(2.0)) for r in failures for m in r.margins)
    min_lo = min((r.margins[0].value for r in results), default=math.inf)
    min_hi = min((r.margins[1].value for r in results), default=math.inf)
    return BoundsSuiteReport(
        k_max=k_max,
        grid=pts,
        results=tuple(results),
        failures=failures,
        min_lower_margin=min_lo,
        min_upper_margin=min_hi,
        refuted=refuted,
        undecided=undecided,
    )
