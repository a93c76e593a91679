"""Digamma/polygamma evaluation with guaranteed absolute error bounds.

One series routine evaluates psi^(n)(x) for every order n >= 0; digamma is
its n = 0 case.  It sums a fixed explicit prefix (the recurrence shift) and
closes the series with an Euler-Maclaurin tail whose remainder is bounded
rigorously by |B_2p|/(2p)! times the integral of |g^(2p)| (classical
periodized-Bernoulli-polynomial bound; the integrand's derivatives are
one-signed, so the integral telescopes to a closed form).  It takes no error
budget: abs_error is whatever that one closed series guarantees, remainder
plus rounding.  The independent routes that tests check it against live in
tests/reference.py.

Sign convention: psi^(n) has sign (-1)^(n+1) on (0, inf) for n >= 1; the
routine works with (-1)^(n+1) psi^(n) (for n = 0, -psi) and applies the sign
at the end.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from . import checks
from .errors import CapabilityError
from .evaluation import EvalResult, ulp

# Euler's constant to 50 digits, exported for callers; no evaluation reads
# it.  Validated at test time against the slowly-converging defining series
# with an integral-test tail bracket.
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

# Polygamma order beyond which factorials/powers routinely overflow double
# precision for ordinary grid arguments.  polycm.cm_engine refuses a
# derivative that needs a higher order before it evaluates anything.
ORDER_CAP = 120

_TINY = sys.float_info.min  # smallest normal double: below it a value loses bits


@lru_cache(maxsize=ORDER_CAP + 1)
def _order_constants(n: int) -> tuple:
    """What the series needs of the order n alone, as floats rounded from
    exact integers and rationals: n!, (n-1)! (None at n = 0, whose tail
    starts with -ln y), the exponents -(n+1) and -n, the coefficients
    c_p = B_2p (n+2p-1)!/(2p)! of pairs p = 1..7, |c_8| for the remainder,
    the least tail argument y_min = 24 + 0.55n the shift reaches, and the
    explicit-sum and tail rounding charge factors.
    """
    fact_f = float(math.factorial(n))
    y_min = 24.0 + 0.55 * n
    # int / int rounds the exact quotient once, as float(Fraction) would
    coeffs = tuple(
        _BERNOULLI[2 * p][0] * math.factorial(n + 2 * p - 1)
        / (_BERNOULLI[2 * p][1] * math.factorial(2 * p))
        for p in range(1, _MAX_EM_PAIRS + 1)
    )
    if n == 0:
        # derived per term in tests/test_ledger.py: 1/(x+k) needs 2 eps (x + k,
        # pow, fsum), ln y 1/2 / ln 24 + 1 and the half-sample 1; the pairs'
        # overdraw of 1.25 is below 2e-3 of ln y's surplus
        return (fact_f, None, -1.0, -0.0, coeffs[:-1], abs(coeffs[-1]), y_min,
                2.0 * _EPS, 1.25 * _EPS)
    # explicit-sum charge, per term: pow amplification (n+1)/2 eps on the
    # rounded base, ~1 ulp for pow itself, 1/2 ulp each for factorial and
    # product; math.fsum rounds the sum once
    return (fact_f, float(math.factorial(n - 1)), -(n + 1.0), -float(n),
            coeffs[:-1], abs(coeffs[-1]), y_min,
            ((n + 1.0) / 2.0 + 3.0) * _EPS, ((n + 16.0) / 2.0 + 4.0) * _EPS)


def _label(n: int, x: float) -> str:
    return f"psi^({n})({x})" if n else f"psi({x})"


def _series(n: int, x: float) -> EvalResult:
    """psi^(n)(x) for a checked order 0 <= n <= ORDER_CAP and x > 0.

    psi^(n)(x) = (-1)^(n+1) n! sum_{k>=0} (x+k)^-(n+1) (at n = 0 the sum
    diverges, and -ln y replaces its tail's integral): the first K terms
    summed explicitly (each strips one pole), then a tail of seven pairs whose
    remainder bound is folded into abs_error with the rounding.  The shift
    to x + K >= 24 + 0.55n depends on n and x alone.  A value or bound that
    leaves the double range is a CapabilityError: the program's limit, not
    a bad argument.
    """
    (fact_f, fact_m1, e_expl, e_tail, coeffs, c_rem, y_min,
     expl_charge, tail_charge) = _order_constants(n)
    K = max(0, math.ceil(y_min - x))
    # K = 0 only when x >= y_min, where n!/x^(n+1) fits a double.  A
    # first term that overflows without raising is inf, and is refused below.
    try:
        s_expl = math.fsum([fact_f * (x + k) ** e_expl for k in range(K)])
    except OverflowError as exc:
        raise CapabilityError(f"|{_label(n, x)}| overflows double precision") from exc
    # Euler-Maclaurin tail of n! * sum_{k>=0} (y+k)^-(n+1): the integral part
    # (n-1)!/y^n (at n = 0, -ln y), the half-sample n!/(2 y^(n+1)), the pairs
    # p = 1..7 as (c_p r^p) y^-n with r = 1/y^2, and the remainder
    # |c_8| r^8 y^-n, so a term is lost only where it falls below _TINY
    # itself.  A subnormal y^-n (a negative exponent underflows where y^n
    # would overflow) raises; y^-0 is 1.
    # Rounding for n >= 1, in eps per |term| with y's own rounding costing
    # j/2 on y^-j: the leading term needs n/2 + 2, the half-sample n/2 + 3.5
    # and pair p n/2 + 2.5p + 3.5 (r 2.5, r^p 2.5p + 1).  tail_charge grants
    # n/2 + 12 to each, so pairs 4..7 overdraw by at most 9 eps of their
    # size; in exact rationals they are below 1.1e-5 of the leading term for
    # n <= 120 and y >= y_min (tests/test_ledger.py), and its unused 10 eps
    # pay for them and the remainder's.  n = 0 has its own charges.
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
    tail = [fact_m1 * inv_pow if n else -math.log(y), fact_f * inv_pow * inv_y / 2.0]
    tail += [c * r ** p * inv_pow for p, c in enumerate(coeffs, 1)]
    remainder = c_rem * r ** _MAX_EM_PAIRS * inv_pow + 8 * 5e-324
    tail_abs = math.fsum([abs(t) for t in tail])
    total = math.fsum([s_expl] + tail)
    rounding = expl_charge * s_expl + tail_charge * tail_abs + 2.0 * ulp(total)
    sign = 1.0 if n % 2 == 1 else -1.0
    total, abs_error = sign * total, remainder + rounding
    if not (math.isfinite(total) and math.isfinite(abs_error)):
        raise CapabilityError(f"|{_label(n, x)}| overflows double precision")
    return EvalResult(total, abs_error)


def polygamma(n: int, x: float) -> EvalResult:
    """psi^(n)(x) for n >= 1 with a guaranteed abs_error.

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
    return _series(n, checks.positive_real("x", x))


def digamma(x: float) -> EvalResult:
    """psi(x) with a guaranteed abs_error: the series' n = 0 case.

    With y = x + K >= 24, psi(x) = ln y - 1/(2y) - sum_{p=1..7} B_2p/(2p y^2p)
    - sum_{k<K} 1/(x+k), with remainder below |B_16|/(16 y^16)
    (Abramowitz-Stegun 6.3.18).  It refuses only where 1/x overflows, for x
    below about 5.56e-309.
    """
    return _series(0, checks.positive_real("x", x))
