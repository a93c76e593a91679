"""Laplace-transform kernels with certified limits, monotonicity, and ranges.

Every kernel here is an elementary combination of E(t) = 1/(e^t - 1):

    kappa(t)       = 1/(1 - e^-t)            = 1 + E(t)
    h(k, t)        = (kappa(t) - 1/2)/t^k    = (E(t) + 1/2)/t^k
    tanh_kernel(t) = (t/2)/tanh(t/2) - 1     = t*(E(t) + 1/2) - 1
    omega(t)       = -2t e^-t/(1 - e^-2t)    = -2t E(t)/(1 + e^-t)

Working through the shared primitive keeps boundary margins stable: the
distance of h(0, t) above 1/2 is E(t) itself (computable to ~1e-22 at t = 50
where the subtraction h - 1/2 would drown in ulp(1/2)), and the distance of
h(-1, t) above 1 is exactly tanh_kernel(t).  The report reads each kernel's
steps, limits and range from such distances to its finite limits, and its
direction from which end has one.

E has one route on all of (0, inf).  kappa, tanh_kernel above t = 0.05 and
omega_plus_one from t = 1 on take their bounds from EvalResult's rules; the
rest carry closed-form bounds of their own.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

from . import checks
from .errors import CapabilityError, DomainError
from .evaluation import EvalResult, decide, ulp

_KINDS = ("h", "omega", "tanh", "kappa")


class _KernelIdFields(NamedTuple):
    kind: str
    k: int | None


class KernelId(_KernelIdFields):
    """Names one kernel; k selects the power weight and only applies to h."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int | None = None) -> "KernelId":
        if kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
        if kind == "h":
            k = checks.integer("h power k", k)
        elif k is not None:
            raise DomainError(f"{kind} takes no power parameter")
        return tuple.__new__(cls, (kind, k))

    def label(self) -> str:
        return f"h[{self.k}]" if self.kind == "h" else self.kind


def reciprocal_expm1(t: float) -> EvalResult:
    """E(t) = 1/(e^t - 1), the primitive behind every kernel here.

    One route on all of (0, inf), e^-t/(-expm1(-t)): exp and expm1 are each
    within about an ulp, so 3 ulp(value) plus the smallest subnormal bounds
    it, also past t ~ 745 where e^-t underflows to 0.
    Decreasing from +inf to 0; positive everywhere.
    """
    t = checks.positive_real("t", t)
    value = math.exp(-t) / -math.expm1(-t)
    if value == math.inf:
        # t below about 5.6e-309: E(t) ~ 1/t leaves the double range
        raise CapabilityError(f"E(t) = 1/(e^t - 1) overflows at t={t}")
    return EvalResult(value, 3.0 * ulp(value) + 5e-324)


def kappa(t: float) -> EvalResult:
    """1/(1 - e^-t) = 1 + E(t); decreasing on (0, inf) with range (1, inf)."""
    return reciprocal_expm1(t) + 1.0


def h(k: int, t: float) -> EvalResult:
    """h_k(t) = (1/(1 - e^-t) - 1/2)/t^k for any integer k.

    Monotone: decreasing for k >= 0, increasing for k <= -1.  Ranges:
    (1/2, inf) at k = 0, (1, inf) at k = -1, (0, inf) otherwise.
    """
    k = checks.integer("power k", k)
    t = checks.positive_real("t", t)
    num = reciprocal_expm1(t) + 0.5
    try:
        tk = t ** float(k)
    except OverflowError as exc:
        raise CapabilityError(f"t^{k} overflows at t={t}") from exc
    if tk == 0.0:
        raise CapabilityError(f"t^{k} leaves the double range at t={t}")
    value = num.value / tk
    if value == math.inf:
        # k >= 1 and t^(k+1) below about 5.6e-309
        raise CapabilityError(f"h[{k}] overflows at t={t}")
    err = num.abs_error / tk + (abs(k) + 3.0) * ulp(value)
    return EvalResult(value, err)


def tanh_kernel(t: float) -> EvalResult:
    """(t/2)/tanh(t/2) - 1 = t*(E(t) + 1/2) - 1; positive and increasing.

    Below t = 0.05 the even series t^2/12 - t^4/720 + t^6/30240 sidesteps
    the subtraction of 1 and stays independent of the kappa route, so
    identity tests against kappa remain meaningful there.
    """
    t = checks.positive_real("t", t)
    if t < 0.05:
        t2 = t * t
        value = t2 / 12.0 - t2 * t2 / 720.0 + t2 * t2 * t2 / 30240.0
        trunc = 2.0 * t**8 / 1209600.0
        return EvalResult(value, trunc + 2.0 * ulp(value))
    return (reciprocal_expm1(t) + 0.5).scaled(t) - 1.0


def omega(t: float) -> EvalResult:
    """-2t e^-t/(1 - e^-2t) = -2t E(t)/(1 + e^-t); increasing from -1 to 0.

    The e^t/(1 - e^2t) form overflows for moderate t; this rewrite does not.
    """
    t = checks.positive_real("t", t)
    E = reciprocal_expm1(t)
    den = 1.0 + math.exp(-t)
    value = -2.0 * t * E.value / den
    err = 2.0 * t * E.abs_error / den + 4.0 * ulp(value)
    return EvalResult(value, err)


def omega_plus_one(t: float) -> EvalResult:
    """omega(t) + 1, the margin of omega above its infimum -1.

    At t = 1e-6 it is ~t^2/6 = 1.7e-13, far below what omega(t) - (-1)
    could resolve in ulps of 1.  Below t = 1 it is
    2e^-t(sinh t - t)/(1 - e^-2t), with sinh t - t as its series
    t^3/3! + ... + t^17/17! (tail below 2t^19/19!).  From t = 1 on,
    omega(t) + 1 >= 0.149 is formed directly, losing under a factor 6 of
    relative accuracy to the cancellation.
    """
    t = checks.positive_real("t", t)
    if t >= 1.0:
        return omega(t) + 1.0
    t2 = t * t
    s = 1/6 + t2 * (1/120 + t2 * (1/5040 + t2 * (1/362880 + t2 * (
        1/39916800 + t2 * (1/6227020800 + t2 * (1/1307674368000 + t2 / 355687428096000))))))
    s *= t2 * t
    # the Horner steps and the product round well within 20 ulp(s)
    s_err = 2.0 * t**19 / 121645100408832000 + 20.0 * ulp(s)
    den = -math.expm1(-2.0 * t)
    value = 2.0 * math.exp(-t) * s / den
    err = 2.0 * math.exp(-t) * s_err / den + 3.0 * ulp(value)
    return EvalResult(value, err)


class _Facts(NamedTuple):
    """What the report certifies about one kernel.

    ends: the kernel at t -> 0 and at t -> inf, None where it grows to +inf,
    else (limit, distance): distance(t, value) is its positive distance
    from the limit in the cancellation-free forms of the module docstring
    (omega + 1 as omega_plus_one, kappa - 1 and h(0, t) - 1/2 as E(t)).
    Each kernel is monotone between its ends, so it increases exactly when
    its limit at t -> 0 is finite: the report reads its direction there.
    """

    value: Callable[[float], EvalResult]
    ends: tuple[tuple[float, Callable[[float, EvalResult], EvalResult]] | None, ...]
    range_text: str


def _facts(kernel: KernelId) -> _Facts:
    if kernel.kind == "omega":
        return _Facts(omega, ((-1.0, lambda t, v: omega_plus_one(t)), (0.0, lambda t, v: -v)),
                      "(-1, 0)")
    if kernel.kind == "kappa":
        return _Facts(kappa, (None, (1.0, lambda t, v: reciprocal_expm1(t))), "(1, inf)")
    if kernel.kind == "tanh":
        return _Facts(tanh_kernel, ((0.0, lambda t, v: v), None), "(0, inf)")
    k = kernel.k
    value = partial(h, k)
    if k == 0:
        return _Facts(value, (None, (0.5, lambda t, v: reciprocal_expm1(t))), "(1/2, inf)")
    if k == -1:
        return _Facts(value, ((1.0, lambda t, v: tanh_kernel(t)), None), "(1, inf)")
    zero = (0.0, lambda t, v: v)
    return _Facts(value, (None, zero) if k > 0 else (zero, None), "(0, inf)")


# ---------------------------------------------------------------------------
# Report machinery
# ---------------------------------------------------------------------------


class LimitCheck(NamedTuple):
    """One endpoint check: it passes when the outermost grid step at that
    end certifiably goes the kernel's known direction and, for a finite
    limit, the distance from the limit at the endpoint is certified
    positive.  achieved is that distance; for expected None (divergence to
    +inf) it is the endpoint value.
    """

    end: str  # "zero" or "infinity"
    expected: float | None
    achieved: float
    passed: bool


class KernelReport(NamedTuple):
    kernel: KernelId
    grid: tuple[float, ...]
    values: tuple[EvalResult, ...]
    monotonicity_verdict: str  # "increasing" | "decreasing" | "none"
    expected_monotonicity: str  # the direction the kernel is known to have
    limit_checks: tuple[LimitCheck, ...]
    range_description: str
    range_passed: bool
    min_range_margin: float
    refuted: bool  # some step or distance certified against the kernel
    undecided: tuple[float, ...]  # t of the steps and distances left undecided
    diagnostics: tuple[str, ...] = ()


def kernel_report(
    kernel: KernelId,
    grid: tuple[float, ...] | list[float],
) -> KernelReport:
    """Evaluate the kernel over the grid and certify monotonicity, endpoint
    limits, and range membership from the distances of _Facts.ends, each
    evaluated once per point and read only through certified_sign.

    A step goes the known direction when the first distance to decide it
    says so; the range needs every distance certified positive.  A verdict
    of none is a refusal to certify, not a refutation; diagnostics list the
    offending comparisons.  refuted and undecided are decide's reading of
    the signs of the steps (marked at both ends) and of the distances:
    whether one is certified against the kernel, and the t of those that
    rounding leaves undecided, such as a distance that has underflowed to 0.
    """
    grid = checks.grid(grid, 2)  # adjacent comparisons need two points
    facts = _facts(kernel)
    direction = "decreasing" if facts.ends[0] is None else "increasing"
    values = tuple(facts.value(t) for t in grid)
    dists = [None if end is None else [end[1](t, v) for t, v in zip(grid, values)]
             for end in facts.ends]
    live = [(sense, d) for sense, d in zip((1, -1), dists) if d is not None]
    diagnostics: list[str] = []

    # +1 where a step goes the known direction: the distance from the limit
    # at 0 grows, or the one from the limit at inf shrinks; -1 against it.
    # The first distance that decides a step counts.
    steps = [0] * (len(grid) - 1)
    for sense, d in live:
        steps = [s or sense * (b - a).certified_sign() for s, a, b in zip(steps, d, d[1:])]
    marks = [(t, s) for i, s in enumerate(steps) for t in grid[i:i + 2]]
    first = live[0][1]
    for i in (i for i, s in enumerate(steps) if s == 0):
        diff = first[i + 1] - first[i]
        diagnostics.append(
            f"inconclusive step at t={grid[i]:.6g}..{grid[i+1]:.6g}: "
            f"diff={diff.value:.3e} within error {diff.abs_error:.3e}"
        )
    ups, downs = steps.count(1), steps.count(-1)
    if direction == "decreasing":
        ups, downs = downs, ups
    verdict = ("increasing" if ups == len(steps) else
               "decreasing" if downs == len(steps) else "none")
    if ups and downs:
        diagnostics.append(f"mixed directions: {ups} up, {downs} down")

    # range membership: every distance certified positive
    min_margin = math.inf
    range_ok = True
    for i, t in enumerate(grid):
        for margin in (d[i] for _, d in live):
            min_margin = min(min_margin, margin.value - margin.abs_error)
            sign = margin.certified_sign()
            if sign != 1:
                range_ok = False
                marks.append((t, sign))
                diagnostics.append(
                    f"range margin not cleared at t={t:.6g}: "
                    f"{margin.value:.3e} within error {margin.abs_error:.3e}"
                )

    # endpoint limits: the outermost step, and the distance at the endpoint
    limits: list[LimitCheck] = []
    for end, limit, d, idx, outer in zip(
        ("zero", "infinity"), facts.ends, dists, (0, -1), (steps[0], steps[-1])
    ):
        if limit is None:
            limits.append(LimitCheck(end, None, values[idx].value, outer == 1))
        else:
            limits.append(LimitCheck(end, limit[0], d[idx].value,
                                     outer == 1 and d[idx].certified_sign() == 1))

    refuted, undecided = decide(marks)
    return KernelReport(
        kernel=kernel,
        grid=grid,
        values=values,
        monotonicity_verdict=verdict,
        expected_monotonicity=direction,
        limit_checks=tuple(limits),
        range_description=facts.range_text,
        range_passed=range_ok,
        min_range_margin=min_margin,
        refuted=refuted,
        undecided=undecided,
        diagnostics=tuple(diagnostics),
    )
