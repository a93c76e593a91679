"""Laplace-transform kernels with certified limits, monotonicity, and ranges.

Every kernel here is an elementary combination of E(t) = 1/(e^t - 1):

    kappa(t)       = 1/(1 - e^-t)            = 1 + E(t)
    h(k, t)        = (kappa(t) - 1/2)/t^k    = (E(t) + 1/2)/t^k
    tanh_kernel(t) = (t/2)/tanh(t/2) - 1     = t*(E(t) + 1/2) - 1
    omega(t)       = -2t e^-t/(1 - e^-2t)    = -2t E(t)/(1 + e^-t)

Working through the shared primitive keeps boundary margins stable: the
distance of h(0, t) above 1/2 is E(t) itself (computable to ~1e-22 at t = 50
where the subtraction h - 1/2 would drown in ulp(1/2)), and the distance of
h(-1, t) above 1 is exactly tanh_kernel(t).

E has one route on all of (0, inf).  kappa, tanh_kernel above t = 0.05 and
the report's limit approaches take their bounds from EvalResult's rules; the
rest carry closed-form bounds of their own.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, NamedTuple

from . import checks
from .errors import CapabilityError, DomainError
from .evaluation import EvalResult, ulp

# A finite endpoint limit passes when the endpoint value is this close to it
# (or when the approach to it is certified).
_LIMIT_TOLERANCE = 1e-5

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


def half_shifted_kappa(t: float) -> EvalResult:
    """kappa(t) - 1/2 = E(t) + 1/2, the shared numerator of the h family."""
    return reciprocal_expm1(t) + 0.5


def h(k: int, t: float) -> EvalResult:
    """h_k(t) = (1/(1 - e^-t) - 1/2)/t^k for any integer k.

    Monotone: decreasing for k >= 0, increasing for k <= -1.  Ranges:
    (1/2, inf) at k = 0, (1, inf) at k = -1, (0, inf) otherwise.
    """
    k = checks.integer("power k", k)
    t = checks.positive_real("t", t)
    num = half_shifted_kappa(t)
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
    return half_shifted_kappa(t).scaled(t) - 1.0


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
    """omega(t) + 1 computed without cancellation: 2e^-t(sinh t - t)/(1 - e^-2t).

    This is the margin of omega above its infimum -1; at t = 1e-6 it is
    ~t^2/6 = 1.7e-13, far below what omega(t) - (-1) could resolve in ulps
    of 1.  sinh t - t keeps ~2 ulp(sinh t) absolute error, charged to
    abs_error: the value is off by 7.8e-5 relative at t = 1e-6, 4.7 % at
    1e-7 and 890 % at 1e-8, so below about 1e-7 the margin is not certified
    positive.  Past t = 700, where sinh t nears overflow,
    omega(t) > -1e-300, so omega(t) + 1 is formed directly.
    """
    t = checks.positive_real("t", t)
    if t > 700.0:
        return omega(t) + 1.0
    s = math.sinh(t) - t
    g = 2.0 * math.exp(-t) * s
    den = -math.expm1(-2.0 * t)
    value = g / den
    err = (2.0 * math.exp(-t) * 2.0 * ulp(math.sinh(t))) / den + 3.0 * ulp(value)
    return EvalResult(value, err)


class _Facts(NamedTuple):
    """What the report certifies about one kernel.

    compared: the quantity whose adjacent differences decide monotonicity,
    None for the kernel itself.  h at k = 0 and kappa flatten to 1/2 resp. 1
    at large t, where subtracting near-equal values loses the comparison;
    both differ from E(t) by a constant, so they are compared through E.
    limits: values at t -> 0 and t -> inf, None for divergence to +inf.
    range_margins(t, value): the margins that must all be certified positive
    for the range claim, in the cancellation-free forms of the module
    docstring (omega + 1 as omega_plus_one).
    """

    value: Callable[[float], EvalResult]
    compared: Callable[[float], EvalResult] | None
    direction: str  # "increasing" | "decreasing"
    limits: tuple[float | None, float | None]
    range_text: str
    range_margins: Callable[[float, EvalResult], list[EvalResult]]


def _facts(kernel: KernelId) -> _Facts:
    if kernel.kind == "omega":
        return _Facts(omega, None, "increasing", (-1.0, 0.0), "(-1, 0)",
                      lambda t, v: [omega_plus_one(t), -v])
    if kernel.kind == "kappa":
        return _Facts(kappa, reciprocal_expm1, "decreasing", (None, 1.0), "(1, inf)",
                      lambda t, v: [reciprocal_expm1(t)])
    if kernel.kind == "tanh":
        return _Facts(tanh_kernel, None, "increasing", (0.0, None), "(0, inf)",
                      lambda t, v: [v])
    k = kernel.k
    value = partial(h, k)
    if k == 0:
        return _Facts(value, reciprocal_expm1, "decreasing", (None, 0.5), "(1/2, inf)",
                      lambda t, v: [reciprocal_expm1(t)])
    if k == -1:
        return _Facts(value, None, "increasing", (1.0, None), "(1, inf)",
                      lambda t, v: [tanh_kernel(t)])
    if k > 0:
        return _Facts(value, None, "decreasing", (None, 0.0), "(0, inf)",
                      lambda t, v: [v])
    return _Facts(value, None, "increasing", (0.0, None), "(0, inf)", lambda t, v: [v])


# ---------------------------------------------------------------------------
# Report machinery
# ---------------------------------------------------------------------------


class LimitCheck(NamedTuple):
    """One endpoint check.

    For a finite limit, achieved is |value - limit|; the check passes when
    that is within tolerance, or else when the approach is certified: the
    outermost grid step moves the value strictly closer to the limit with
    margins cleared (slow limits like 1/(2t) -> 0 cannot land inside a tight
    tolerance on any finite grid, but their approach is checkable).
    expected None encodes divergence; passing then means certified growth
    outward, and achieved records the endpoint value.
    """

    end: str  # "zero" or "infinity"
    expected: float | None
    achieved: float
    tolerance: float | None
    approach_certified: bool
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
    diagnostics: tuple[str, ...] = ()


def kernel_report(
    kernel: KernelId,
    grid: tuple[float, ...] | list[float],
) -> KernelReport:
    """Evaluate the kernel over the grid and certify monotonicity, endpoint
    limits, and range membership, each only when margins clear error bounds.

    A verdict of none is a refusal to certify, not a refutation; diagnostics
    list the offending comparisons.  A range margin whose value and bound
    both sit below the normal double range raises CapabilityError.
    """
    grid = checks.grid(grid, 2)  # adjacent comparisons need two points
    facts = _facts(kernel)
    values = tuple(facts.value(t) for t in grid)
    diagnostics: list[str] = []

    # monotonicity: signed differences of adjacent compared values
    compared = values if facts.compared is None else [facts.compared(t) for t in grid]
    diffs = [b - a for a, b in zip(compared, compared[1:])]
    signs = [d.certified_sign() for d in diffs]
    ups = signs.count(1)
    downs = signs.count(-1)
    if ups == len(diffs):
        verdict = "increasing"
    elif downs == len(diffs):
        verdict = "decreasing"
    else:
        verdict = "none"
        for i, (d, s) in enumerate(zip(diffs, signs)):
            if s == 0:
                diagnostics.append(
                    f"inconclusive step at t={grid[i]:.6g}..{grid[i+1]:.6g}: "
                    f"diff={d.value:.3e} within error {d.abs_error:.3e}"
                )
        if ups and downs:
            diagnostics.append(f"mixed directions: {ups} up, {downs} down")

    # endpoint limits
    limits: list[LimitCheck] = []
    for end, idx, expected in zip(("zero", "infinity"), (0, len(grid) - 1), facts.limits):
        v_end = values[idx]
        v_prev = values[1] if end == "zero" else values[-2]
        if expected is None:
            # divergent endpoint: require certified growth toward it, a
            # falling first step at zero and a rising last step at infinity
            grew = (signs[-1] if end == "infinity" else -signs[0]) == 1
            limits.append(LimitCheck(end, None, abs(v_end.value), None, grew, grew))
            continue
        gap = abs(v_end - expected)
        achieved = gap.value
        approach = (abs(v_prev - expected) - gap).certified_sign() == 1
        limits.append(
            LimitCheck(
                end,
                expected,
                achieved,
                _LIMIT_TOLERANCE,
                approach,
                achieved <= _LIMIT_TOLERANCE or approach,
            )
        )

    # range membership with stable margins
    min_margin = math.inf
    range_ok = True
    for t, v in zip(grid, values):
        for margin in facts.range_margins(t, v):
            min_margin = min(min_margin, margin.value - margin.abs_error)
            if margin.certified_sign() != 1:
                if abs(margin.value) + margin.abs_error < sys.float_info.min:
                    # e.g. E(t) past t ~ 745: the margin left the double range
                    raise CapabilityError(
                        f"{kernel.label()} range margin underflows double "
                        f"precision at t={t:.6g}"
                    )
                range_ok = False
                diagnostics.append(
                    f"range margin not cleared at t={t:.6g}: "
                    f"{margin.value:.3e} within error {margin.abs_error:.3e}"
                )

    return KernelReport(
        kernel=kernel,
        grid=grid,
        values=values,
        monotonicity_verdict=verdict,
        expected_monotonicity=facts.direction,
        limit_checks=tuple(limits),
        range_description=facts.range_text,
        range_passed=range_ok,
        min_range_margin=min_margin,
        diagnostics=tuple(diagnostics),
    )
