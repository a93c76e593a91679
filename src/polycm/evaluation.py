"""Error-tracked scalar arithmetic and grid builders.

Every numeric quantity the package reports travels as an EvalResult: a float
value together with a guaranteed absolute error bound.  Propagation is exact
for sums (bounds add, plus one rounding ulp) and first order for products
(|a|*eb + |b|*ea + ea*eb, plus one rounding ulp).  Bounds are deliberately
conservative; verification verdicts compare margins against them, so an
overestimate can only make a check inconclusive, never wrongly "pass".
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import checks
from .errors import DomainError

# One unit in the last place of |value|: positive, and 5e-324 at +-0.0.
# math.ulp already takes |value| and maps zero to the smallest subnormal, so
# the bound operations call it directly, with no Python frame in between.
ulp = math.ulp


class _EvalResultFields(NamedTuple):
    value: float
    abs_error: float


class EvalResult(_EvalResultFields):
    """A computed float plus a guaranteed absolute error bound.

    An immutable named tuple: it unpacks as (value, abs_error) and compares
    equal to a plain tuple of the two, but refuses ordering, which would
    compare values and bounds lexicographically.  The constructor rejects a
    non-finite value or a negative or non-finite bound.  _replace, _make and
    tuple.__new__ skip that check; in polycm only cm_engine._assemble skips
    it: it builds a column's results with tuple.__new__ once its
    CapabilityError check has passed on each value and bound.
    """

    __slots__ = ()

    def __new__(cls, value: float, abs_error: float) -> "EvalResult":
        if not math.isfinite(value):
            raise DomainError(f"non-finite value {value!r}")
        if not (abs_error >= 0.0) or not math.isfinite(abs_error):
            raise DomainError(f"invalid abs_error {abs_error!r}")
        return tuple.__new__(cls, (value, abs_error))

    def __lt__(self, other):
        # raised, not NotImplemented: tuple's reflected comparison would
        # then order an EvalResult against a plain tuple
        raise TypeError("EvalResult is not ordered; compare values or use certified_sign")

    __le__ = __gt__ = __ge__ = __lt__

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "EvalResult | float | int") -> "EvalResult":
        o = as_result(other)
        v = self.value + o.value
        return EvalResult(v, self.abs_error + o.abs_error + ulp(v))

    __radd__ = __add__

    def __sub__(self, other: "EvalResult | float | int") -> "EvalResult":
        # a - b and a + (-b) are one IEEE operation: one bound rule for both
        return self + -as_result(other)

    def __rsub__(self, other: "EvalResult | float | int") -> "EvalResult":
        return as_result(other) - self

    def __mul__(self, other: "EvalResult | float | int") -> "EvalResult":
        o = as_result(other)
        a, ea, b, eb = self.value, self.abs_error, o.value, o.abs_error
        v = a * b
        return EvalResult(v, abs(a) * eb + abs(b) * ea + ea * eb + ulp(v))

    __rmul__ = __mul__

    def __neg__(self) -> "EvalResult":
        return EvalResult(-self.value, self.abs_error)

    def __abs__(self) -> "EvalResult":
        """|value| is exact, so the bound carries over unchanged."""
        return EvalResult(abs(self.value), self.abs_error)

    def scaled(self, c: float) -> "EvalResult":
        """Multiply by an exact scalar (integer-valued floats stay exact)."""
        w = self.value * c
        return EvalResult(w, abs(c) * self.abs_error + ulp(w))

    # -- sign certification -------------------------------------------------

    def certified_sign(self, factor: float = 1.0) -> int:
        """+1 when value > factor * abs_error, -1 when value < -factor *
        abs_error, 0 otherwise.  The one rule by which polycm issues a
        verdict: a sign counts only when the value clears its bound.
        decide is the one reading of the signs a report collects."""
        bound = factor * self.abs_error
        if self.value > bound:
            return 1
        if self.value < -bound:
            return -1
        return 0


def decide(marks) -> tuple[bool, tuple[float, ...]]:
    """The one reading of certified signs: marks are the (point, sign) of
    each margin a report read by EvalResult.certified_sign, the one rule.
    Returns (refuted, undecided): whether any sign is -1, and the sorted
    distinct points whose sign is 0."""
    marks = tuple(marks)
    return (any(sign == -1 for _, sign in marks),
            tuple(sorted({point for point, sign in marks if sign == 0})))


def as_result(x: "EvalResult | float | int") -> EvalResult:
    """Wrap an exact scalar; EvalResults pass through unchanged."""
    if isinstance(x, EvalResult):
        return x
    return EvalResult(float(x), 0.0)


class PrecisionConfig:
    """Not part of polycm's API, and nothing in polycm calls it.  Only
    bench/run.py install_spans reads it: it patches for_magnitude by name.
    The next benchmark change drops that patch and this class (ROADMAP
    item 1, and "Names kept only for the bench")."""

    @staticmethod
    def for_magnitude(magnitude: float) -> None:
        """Unused: polygamma and digamma take no error budget."""


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    """count log-spaced points on [lo, hi], endpoints included, increasing."""
    checks.finite("grid start", lo)
    checks.finite("grid end", hi)
    count = checks.integer("grid count", count, 2)
    if not (0.0 < lo < hi):
        raise DomainError(f"bad grid ({lo}, {hi}, {count})")
    la, lb = math.log(lo), math.log(hi)
    pts = [math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]
    pts[0], pts[-1] = lo, hi
    return pts


def linear_grid(lo: float, hi: float, count: int) -> list[float]:
    """count evenly spaced points on [lo, hi], endpoints included."""
    checks.finite("grid start", lo)
    checks.finite("grid end", hi)
    count = checks.integer("grid count", count, 2)
    if not (lo < hi):
        raise DomainError(f"bad grid ({lo}, {hi}, {count})")
    step = (hi - lo) / (count - 1)
    pts = [lo + step * i for i in range(count)]
    pts[-1] = hi
    return pts
