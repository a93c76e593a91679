"""Double-inequality checks for digamma and polygamma magnitudes.

    ln x - 1/x  <  psi(x)        <  ln x - 1/(2x)
    (k-1)!/x^k + k!/(2x^(k+1))  <  |psi^(k)(x)|  <  (k-1)!/x^k + k!/x^(k+1)

Both are strict on (0, inf).  Each margin is an EvalResult with its own
bound, and a check passes only when both margins are certified positive by
certified_sign(2.0), so numeric noise can never fake strictness.  The suite
reads the failed rows' margins at that same factor 2 for its refutations
and undecided points.  Every margin is exact.minus_rational of a measured
quantity and an exact rational: |psi^(k)| less each bound for k >= 1; for
k = 0, psi - ln x + 1/x and -(psi - ln x + 1/(2x)).  digamma is
polygamma's n = 0 case and neither takes an error budget: each margin is
weighed against its one closed series' bound, plus 2 ulps of ln x at k = 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import checks
from .evaluation import EvalResult, decide, ulp
from .exact import minus_rational
from .polygamma import digamma, polygamma


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
    """ln x - 1/x < psi(x) < ln x - 1/(2x), margins demanded strict."""
    x = checks.positive_real("x", x)
    mid = digamma(x)
    lnx = math.log(x)
    # math.log is within one ulp of ln x: two of its result at a binade edge
    d = mid - EvalResult(lnx, 2.0 * ulp(lnx))
    a, b = x.as_integer_ratio()
    margins = (minus_rational(d, -b, a), -minus_rational(d, -b, 2 * a))
    return InequalityResult(
        k=0,
        x=x,
        lower=lnx - 1.0 / x,
        middle=mid,
        upper=lnx - 0.5 / x,
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
    results = tuple(polygamma_bounds_check(k, x) if k else psi_log_bounds_check(x)
                    for k in range(k_max + 1) for x in pts)
    failures = tuple(r for r in results if not r.passed)
    refuted, undecided = decide((r.x, m.certified_sign(2.0)) for r in failures for m in r.margins)
    min_lo, min_hi = (min((r.margins[i].value - r.margins[i].abs_error for r in results),
                          default=math.inf) for i in (0, 1))
    return BoundsSuiteReport(
        k_max=k_max,
        grid=pts,
        results=results,
        failures=failures,
        min_lower_margin=min_lo,
        min_upper_margin=min_hi,
        refuted=refuted,
        undecided=undecided,
    )
