"""Digamma/polygamma evaluation with guaranteed absolute error bounds.

digamma and polygamma sum explicit series terms and close the series with an
Euler-Maclaurin tail correction whose remainder is bounded rigorously by
|B_2p|/(2p)! times the integral of |g^(2p)| (classical periodized-Bernoulli-
polynomial bound; the integrand's derivatives are one-signed, so the integral
telescopes to a closed form).  Each sums a fixed explicit prefix and its
tail once, and takes no error budget: abs_error is whatever that one closed
series guarantees, remainder plus rounding.  The independent routes that
tests check them against live in tests/reference.py.

Sign convention: psi^(n) has sign (-1)^(n+1) on (0, inf); internals work with
the positive magnitude and apply the sign at the end.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import checks
from .errors import CapabilityError
from .evaluation import EvalResult, ulp

# Euler's constant to 50 digits; validated at test time against the
# slowly-converging defining series with an integral-test tail bracket.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992

_EPS = 2.0 ** -52

# Bernoulli numbers B_2 .. B_16, exact, as (numerator, denominator).
_BERNOULLI = {
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
}
_MAX_EM_PAIRS = 8  # remainder bound uses B_16 at most

# digamma's Bernoulli factors B_2i/(2i) with exponents -2i for i < 8, and
# |B_16|/16, which bounds its remainder.
_DIGAMMA_PAIRS = tuple(
    (num / den / (2 * i), -2.0 * i)
    for i, (num, den) in zip(range(1, _MAX_EM_PAIRS), _BERNOULLI.values())
)
_DIGAMMA_REMAINDER = abs(_BERNOULLI[16][0] / _BERNOULLI[16][1]) / 16

# Polygamma order beyond which factorials/powers routinely overflow double
# precision for ordinary grid arguments.  polycm.cm_engine refuses a
# derivative that needs a higher order before it evaluates anything.
ORDER_CAP = 120

_TINY = sys.float_info.min  # smallest normal double: below it a value loses bits


# ---------------------------------------------------------------------------
# Euler-Maclaurin tail machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=ORDER_CAP)
def _order_constants(n: int) -> tuple:
    """What polygamma's series needs of the order n alone, as floats rounded
    from exact integers and rationals: n!, (n-1)!, the exponents -(n+1) and
    -n, the coefficients c_p = B_2p (n+2p-1)!/(2p)! of pairs p = 1..7, |c_8|
    for the remainder, and the explicit-sum and tail rounding charge factors.
    """
    fact_f = float(math.factorial(n))
    # int / int rounds the exact quotient once, as float(Fraction) would
    coeffs = tuple(
        _BERNOULLI[2 * p][0] * math.factorial(n + 2 * p - 1)
        / (_BERNOULLI[2 * p][1] * math.factorial(2 * p))
        for p in range(1, _MAX_EM_PAIRS + 1)
    )
    # explicit-sum charge, per term: pow amplification (n+1)/2 eps on the
    # rounded base, ~1 ulp for pow itself, 1/2 ulp each for factorial and
    # product; math.fsum rounds the sum once
    return (fact_f, float(math.factorial(n - 1)), -(n + 1.0), -float(n),
            coeffs[:-1], abs(coeffs[-1]),
            ((n + 1.0) / 2.0 + 3.0) * _EPS, ((n + 16.0) / 2.0 + 4.0) * _EPS)


# ---------------------------------------------------------------------------
# Series route (production)
# ---------------------------------------------------------------------------

def _label(n: int, x: float) -> str:
    return f"psi^({n})({x})" if n else f"psi({x})"


def _result(total: float, abs_error: float, n: int, x: float) -> EvalResult:
    """EvalResult(total, abs_error) of psi^(n)(x) (n = 0: digamma), or
    CapabilityError when either has left the double range: that is the
    program's limit, not a bad argument."""
    if not (math.isfinite(total) and math.isfinite(abs_error)):
        raise CapabilityError(f"|{_label(n, x)}| overflows double precision")
    return EvalResult(total, abs_error)


def polygamma(n: int, x: float) -> EvalResult:
    """psi^(n)(x) for n >= 1 with a guaranteed abs_error.

    Series route: psi^(n)(x) = (-1)^(n+1) n! sum_{k>=0} (x+k)^-(n+1), its
    first K terms summed explicitly (summing them is the recurrence shift:
    each term strips one pole), and finished with an Euler-Maclaurin tail
    of seven pairs whose remainder bound is folded into abs_error with the
    rounding.  The shift to x + K >= 24 + 0.55n depends on n and x alone.
    Every tail term is scaled by y^-n last, so the value keeps its digits
    down to the underflow edge: tests hold abs_error to 1e-13 |psi^(n)(x)|
    where y^-(n+16) is subnormal, and to max(1e-12, 1e-13 |psi^(n)(x)|)
    everywhere.  Nothing is cached here but the constants of each order:
    polycm.cm_engine shares whole psi rows across calls.
    """
    n = checks.integer("order", n, 1)
    if n > ORDER_CAP:
        raise CapabilityError(
            f"order {n} exceeds the double-precision capability cap {ORDER_CAP}"
        )
    x = checks.positive_real("x", x)
    (fact_f, fact_m1, e_expl, e_tail, coeffs, c_rem,
     expl_charge, tail_charge) = _order_constants(n)
    K = max(0, math.ceil(24.0 + 0.55 * n - x))
    # K = 0 only when x >= 24 + 0.55n, where n!/x^(n+1) fits a double.  A
    # first term that overflows without raising is inf, and _result refuses it.
    try:
        s_expl = math.fsum([fact_f * (x + k) ** e_expl for k in range(K)])
    except OverflowError as exc:
        raise CapabilityError(f"|{_label(n, x)}| overflows double precision") from exc
    # Euler-Maclaurin tail of n! * sum_{k>=0} (y+k)^-(n+1): the integral part
    # (n-1)!/y^n, the half-sample n!/(2 y^(n+1)), the pairs p = 1..7 as
    # (c_p r^p) y^-n with r = 1/y^2, and the remainder |c_8| r^8 y^-n, so a
    # term is lost only where it falls below _TINY itself.  A subnormal y^-n
    # (a negative exponent underflows where y^n would overflow) raises.
    # Rounding, in eps per |term| with y's own rounding costing j/2 on y^-j:
    # the leading term needs n/2 + 2, the half-sample n/2 + 3.5 and pair p
    # n/2 + 2.5p + 3.5 (r 2.5, r^p 2.5p + 1).  tail_charge grants n/2 + 12 to
    # each, so pairs 4..7 overdraw by at most 9 eps of their size; in exact
    # rationals they are below 1.1e-5 of the leading term for n <= 120 and
    # y >= 24 + 0.55n, and its unused 10 eps pay for them and the remainder's.
    # Floor: a product below _TINY is off by up to half of 5e-324, not eps
    # relative.  Ten last steps can be (two in the half-sample, one per pair
    # and the remainder); earlier ones, only where y^(2p) > 2^1016, reach the
    # result scaled by under 1e-17 in all.  Eight 5e-324 cover them.
    y = x + K
    inv_pow = y ** e_tail
    if inv_pow < _TINY:
        raise CapabilityError(f"y^-{n} underflows double precision at y={y}")
    inv_y = 1.0 / y
    r = inv_y * inv_y
    tail = [fact_m1 * inv_pow, fact_f * inv_pow * inv_y / 2.0]
    tail += [c * r ** p * inv_pow for p, c in enumerate(coeffs, 1)]
    remainder = c_rem * r ** _MAX_EM_PAIRS * inv_pow + 8 * 5e-324
    tail_abs = math.fsum([abs(t) for t in tail])
    total = math.fsum([s_expl] + tail)
    rounding = expl_charge * s_expl + tail_charge * tail_abs + 2.0 * ulp(total)
    sign = 1.0 if n % 2 == 1 else -1.0
    return _result(sign * total, remainder + rounding, n, x)


def digamma(x: float) -> EvalResult:
    """psi(x) via the series -gamma + sum_{k>=0} [1/(k+1) - 1/(k+x)].

    The explicit prefix of the series (32 terms) is the recurrence shift; the
    tail is closed with an Euler-Maclaurin correction whose remainder bound
    lands in abs_error with the rounding.
    """
    x = checks.positive_real("x", x)
    K = 32
    s_terms = math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(K))
    gross_uv = math.fsum(1.0 / (k + 1.0) + 1.0 / (k + x) for k in range(K))
    # Euler-Maclaurin tail of sum_{k>=K} [1/(k+1) - 1/(k+x)]: the integral
    # ln((K+x)/(K+1)), written to survive x near 1, the half-sample, then
    # all eight pairs.  min(K+1, K+x) > 32 makes each pair's remainder bound
    # at most 0.52 % of the one before, so the eighth has the smallest.
    a, b = K + 1.0, K + x
    tail_terms = [math.log1p((x - 1.0) / a), (1.0 / a - 1.0 / b) / 2.0]
    tail_terms += [c * (a ** e - b ** e) for c, e in _DIGAMMA_PAIRS]
    remainder = _DIGAMMA_REMAINDER * min(a, b) ** -16.0
    total = math.fsum([s_terms, -EULER_GAMMA] + tail_terms)
    tail_rest = math.fsum(abs(t) for t in tail_terms[1:])
    rounding = (
        0.6 * _EPS * (gross_uv + abs(s_terms))
        + 2.5 * _EPS * abs(tail_terms[0])
        + 20.0 * _EPS * tail_rest
        + ulp(EULER_GAMMA)
        + 2.0 * ulp(total)
    )
    return _result(total, remainder + rounding, 0, x)
