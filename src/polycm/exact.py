"""The exact layer: integer (numerator, denominator) pairs, denominators
positive, and their one rounding into a double or an EvalResult.

The bounds polycm checks are exact rationals: the brackets of |psi^(k)|, the
bounding polynomials of f'_{m,2n} and the double inequality for |psi^(k)|.
An exact quantity becomes a double here and nowhere else: its value rounded
once by nearest, its bound rounded up by math.nextafter.  One that leaves
the doubles is a CapabilityError.
"""

from __future__ import annotations

import math

from .errors import CapabilityError
from .evaluation import EvalResult, ulp


def nearest(p: int, q: int) -> float:
    """p/q for q > 0, rounded once to nearest, as float(Fraction) would."""
    try:
        return p / q
    except OverflowError as exc:
        raise CapabilityError("exact rational overflows double precision") from exc


def psi_bracket(k: int, a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact bounds (numerator, denominator) of |psi^(k)(a/b)|, k >= 1:

        k!/x^(k+1) + (k-1)!/(x+1)^k  <=  |psi^(k)(x)|  <=  k!/x^(k+1) + (k-1)!/x^k

    (k! sum_j (x+j)^-(k+1), its terms j >= 1 against the integrals of
    t^-(k+1) over [x+1, inf) and [x, inf))."""
    f1 = math.factorial(k - 1)
    fk = k * f1
    ak1, bk = a ** (k + 1), b**k
    c = (a + b) ** k
    lower = (fk * bk * b * c + f1 * bk * ak1, ak1 * c)
    upper = (fk * bk * b + f1 * bk * a, ak1)
    return lower, upper


def minus(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[1] - q[0] * p[1], p[1] * q[1]


def times(c: int, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return c * p[0] * q[0], p[1] * q[1]


def enclose(lower: tuple[int, int], upper: tuple[int, int]) -> EvalResult:
    """The exact bracket [lower, upper] rounded outward once: value is its
    midpoint rounded to nearest, abs_error its half-width plus |value -
    midpoint|, rounded up.  CapabilityError when either leaves the doubles."""
    (pl, ql), (pu, qu) = lower, upper
    den = 2 * ql * qu
    mid = pl * qu + pu * ql          # midpoint mid/den, half-width (pu ql - pl qu)/den
    value = nearest(mid, den)
    vn, vd = value.as_integer_ratio()
    error = (pu * ql - pl * qu) * vd + abs(vn * den - mid * vd)
    error = math.nextafter(nearest(error, vd * den), math.inf)
    if error == math.inf:
        raise CapabilityError("bracket half-width overflows double precision")
    return EvalResult(value, error)


def minus_rational(r: EvalResult, p: int, q: int) -> EvalResult:
    """r - p/q for q > 0: the exact difference r.value - p/q rounded once to
    nearest, within half an ulp of the result, so abs_error is r.abs_error
    plus that half ulp, rounded up."""
    vn, vd = r.value.as_integer_ratio()
    value = nearest(vn * q - p * vd, vd * q)
    return EvalResult(value, math.nextafter(r.abs_error + 0.5 * ulp(value), math.inf))
