"""Complete-monotonicity checks for f(x) = [psi^(m)(x)]^2 + psi^(n)(x).

The l-th derivative in closed form, by the product rule:

    f^(l) = psi^(n+l) + sum_{j=0..l} C(l,j) psi^(m+j) psi^(m+l-j)

_assemble computes f^(l)(x) from a psi row, {k: (value, abs_error) of
psi^(k)(x)}, in plain floats by the rules and operation order of EvalResult
arithmetic.  f_derivative fills a row with {n+l} and {m..m+l}; cm_check keeps
one row per grid point with exactly {m..m+L} and {n..n+L}, so it evaluates
each psi^(k)(x) once.  Each entry's budget is adapted to its own magnitude,
so small-x points do not demand absolute tolerances below the floating
point floor of quantities like psi^(8)(0.01) ~ 1e22.

A CM check evaluates (-1)^l f^(l) over a grid and classifies each point:
certified positive, certified violation (value < -abs_error), or
inconclusive (|value| <= abs_error).  Violations are never declared inside
the error band; analytic claims must not be refuted by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import checks
from .errors import CapabilityError, ConvergenceError, DomainError
from .evaluation import (
    DEFAULT_PRECISION,
    EvalResult,
    PrecisionConfig,
    bounded_sum,
    product,
    scale,
    ulp,
)
from .kernels import tanh_kernel
from .polygamma import magnitude_lower_bound, polygamma

DEFAULT_ORDER_CAP = 64


@dataclass(frozen=True)
class FamilyIndex:
    """Indices (m, n) of f = [psi^(m)]^2 + psi^(n); both at least 1."""

    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", checks.integer("m", self.m, 1))
        object.__setattr__(self, "n", checks.integer("n", self.n, 1))

    def label(self) -> str:
        return f"f[{self.m},{self.n}]"


def _check_cap(idx: FamilyIndex, order: int, order_cap: int) -> None:
    needed = max(idx.n, idx.m) + order
    if needed > order_cap:
        raise CapabilityError(f"{idx.label()} derivative {order} needs polygamma "
                              f"order {needed} beyond the cap {order_cap}")


def _fill(row: dict, orders, x: float, cfg: PrecisionConfig) -> None:
    """Add psi^(k)(x) to the row for each order k it does not hold yet."""
    for k in orders:
        if k not in row:
            r = polygamma(k, x, cfg.for_magnitude(magnitude_lower_bound(k, x)))
            row[k] = (r.value, r.abs_error)


def _assemble(idx: FamilyIndex, order: int, row: dict, sign: float = 1.0) -> EvalResult:
    """sign * f^(order)(x) from a row holding n+order and m..m+order."""
    terms = [row[idx.n + order]]
    # terms j and order-j are bit-identical (products commute): compute once
    for j in range(order // 2 + 1):
        v, e = product(*row[idx.m + j], *row[idx.m + order - j])
        t = scale(v, e, float(math.comb(order, j)))
        terms += (t, t) if 2 * j < order else (t,)
    v, e = bounded_sum(*zip(*terms))
    return EvalResult(sign * v, e)


def f_derivative(
    idx: FamilyIndex,
    order: int,
    x: float,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> EvalResult:
    """f^(order)(x) in closed form with propagated error bounds."""
    order = checks.integer("derivative order", order, 0)
    x = checks.positive_real("x", x)
    _check_cap(idx, order, order_cap)
    row: dict = {}
    _fill(row, (idx.n + order, *range(idx.m, idx.m + order + 1)), x, cfg)
    return _assemble(idx, order, row)


def f_value(idx: FamilyIndex, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION) -> EvalResult:
    """f(x) itself; delegates to f_derivative at order 0 so the two agree
    bit-for-bit on identical inputs."""
    return f_derivative(idx, 0, x, cfg)


def signed_derivative(
    idx: FamilyIndex, order: int, x: float, cfg: PrecisionConfig = DEFAULT_PRECISION
) -> EvalResult:
    """(-1)^order * f^(order)(x): the quantity whose non-negativity CM asserts."""
    r = f_derivative(idx, order, x, cfg)
    return -r if order % 2 == 1 else r


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


# ---------------------------------------------------------------------------
# CM grid check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CMEntry:
    order: int
    x: float
    signed_value: EvalResult  # (-1)^order f^(order)(x)
    status: str  # "positive" | "inconclusive" | "violation"


@dataclass(frozen=True)
class CMReport:
    index: FamilyIndex
    max_order: int
    grid: tuple[float, ...]
    entries: tuple[CMEntry, ...]
    verdict: str  # "consistent_with_CM" | "violation" | "inconclusive"
    violations: tuple[CMEntry, ...]
    inconclusive_points: tuple[CMEntry, ...]

    @property
    def inconclusive_fraction(self) -> float:
        return len(self.inconclusive_points) / max(1, len(self.entries))


def cm_check(
    idx: FamilyIndex,
    max_order: int,
    grid,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    inconclusive_fraction_cap: float = 0.01,
) -> CMReport:
    """Evaluate (-1)^l f^(l) for l = 0..max_order over the grid.

    Verdict: violation if any point is certified negative; otherwise
    inconclusive when the fraction of unresolvable points exceeds the cap;
    otherwise consistent_with_CM.
    """
    max_order = checks.integer("max_order", max_order, 0)
    pts = checks.grid(grid)
    _check_cap(idx, max_order, DEFAULT_ORDER_CAP)
    rows: list[dict] = [{} for _ in pts]
    entries: list[CMEntry] = []
    for order in range(max_order + 1):
        for x, row in zip(pts, rows):
            _fill(row, (idx.n + order, idx.m + order), x, cfg)
            sv = _assemble(idx, order, row, (-1.0) ** order)
            if sv.certainly_negative():
                status = "violation"
            elif sv.certainly_positive() or sv.value >= 0.0:
                # non-negative within tolerance counts toward consistency
                status = "positive" if sv.certainly_positive() else "inconclusive"
            else:
                status = "inconclusive"
            entries.append(CMEntry(order, x, sv, status))
    violations = tuple(e for e in entries if e.status == "violation")
    inconclusive = tuple(e for e in entries if e.status == "inconclusive")
    if violations:
        verdict = "violation"
    elif len(inconclusive) > inconclusive_fraction_cap * len(entries):
        verdict = "inconclusive"
    else:
        verdict = "consistent_with_CM"
    return CMReport(
        index=idx,
        max_order=max_order,
        grid=pts,
        entries=tuple(entries),
        verdict=verdict,
        violations=violations,
        inconclusive_points=inconclusive,
    )


# ---------------------------------------------------------------------------
# Telescoping and the shift-difference identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelescopeReport:
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
    from scipy.integrate import quad  # verification only: keeps scipy off the import path
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
