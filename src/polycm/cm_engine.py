"""Complete-monotonicity checks for f(x) = [psi^(m)(x)]^2 + psi^(n)(x).

The l-th derivative in closed form, by the product rule:

    f^(l) = psi^(n+l) + sum_{j=0..l} C(l,j) psi^(m+j) psi^(m+l-j)

_assemble computes f^(l)(x) from a psi row, {k: (value, abs_error) of
psi^(k)(x)}, in plain floats by the rules and operation order of EvalResult
arithmetic.  The terms j and l-j of the sum are bit-identical (products
commute), so each pair is one term of weight 2 C(l,j): doubling is exact,
and math.fsum rounds the exact sum once.  The one exception is a product
below 2^-1022, where the term's rounding charge ulp(2w) is less than the
2 ulp(w) of two terms, so the bound can come out one ulp lower; it still
covers.

Grid rows are kept only while later calls share them: the module-level
table _grid_rows keeps the rows of the last grid, one row per grid point.
cm_check adds {m..m+L} and {n..n+L} to each, so consecutive members on one
grid (a CM sweep, the CM members of a classification) share the
evaluations.  f_derivative fills a fresh row of {n+l} and {m..m+l} for its
one point: single points are not shared, since the witness search of
polycm.classifier brackets psi exactly and calls no polygamma.

polygamma runs only for an order the row lacks, so one call evaluates each
psi^(k)(x) at most once.  polygamma takes no error budget: each entry's
bound is what its one closed series guarantees, a function of (k, x) alone.

A CM check evaluates (-1)^l f^(l) over a grid and classifies each point by
EvalResult.certified_sign: certified positive, certified violation
(value < -abs_error), or inconclusive (|value| <= abs_error).  Violations are
never declared inside the error band; analytic claims must not be refuted by
rounding.  A Leibniz sum that leaves the double range raises
CapabilityError.  The identity checks on f (finite differences, telescoping,
the shift difference) live in polycm.crosscheck.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import checks
from .errors import CapabilityError
from .evaluation import EvalResult, ulp
from .polygamma import ORDER_CAP, polygamma

# Largest share of unresolved entries a consistent_with_CM verdict allows.
_INCONCLUSIVE_CAP = 0.01

# Status of a CM entry by the certified sign of (-1)^l f^(l)(x).
_STATUS = {1: "positive", 0: "inconclusive", -1: "violation"}

# Grids kept by the grid row table.  The traffic checked: the bench's
# cm_sweep runs 25 members per fresh grid, its witness_scan the 19 CM
# members of a 6x6 classification per fresh grid, and the CLI's classify
# the 19 CM members of its 6x6 table on one grid.  None comes back to an
# older grid, so a second kept grid would never be hit again.
_GRIDS_KEPT = 1


class _FamilyIndexFields(NamedTuple):
    m: int
    n: int


class FamilyIndex(_FamilyIndexFields):
    """Indices (m, n) of f = [psi^(m)]^2 + psi^(n); both at least 1."""

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "FamilyIndex":
        return tuple.__new__(cls, (checks.integer("m", m, 1), checks.integer("n", n, 1)))

    def label(self) -> str:
        return f"f[{self.m},{self.n}]"


def _check_cap(idx: FamilyIndex, order: int) -> None:
    needed = max(idx.n, idx.m) + order
    if needed > ORDER_CAP:
        raise CapabilityError(f"{idx.label()} derivative {order} needs polygamma "
                              f"order {needed} beyond the cap {ORDER_CAP}")


@lru_cache(maxsize=_GRIDS_KEPT)
def _grid_rows(grid: tuple[float, ...]) -> tuple[dict, ...]:
    """The shared psi rows of a validated grid, one per point: the same
    dicts for the same grid until evicted."""
    return tuple({} for _ in grid)


def _fill(row: dict, orders, x: float) -> None:
    """Add psi^(k)(x) to the row for each order k it does not hold yet."""
    for k in orders:
        if k not in row:
            r = polygamma(k, x)
            row[k] = (r.value, r.abs_error)


@lru_cache(maxsize=None)  # one entry per order; ORDER_CAP caps the orders
def _leibniz_weights(order: int) -> tuple[float, ...]:
    """The weight of the pair j, order-j for j <= order/2, as a float:
    2 C(order, j), or C(order, j) alone at 2j = order."""
    return tuple(float(math.comb(order, j) * (1 if 2 * j == order else 2))
                 for j in range(order // 2 + 1))


def _assemble(idx: FamilyIndex, order: int, row: dict, sign: float = 1.0) -> EvalResult:
    """sign * f^(order)(x) from a row holding n+order and m..m+order.

    The arithmetic of EvalResult.__mul__, EvalResult.scaled and result_sum,
    written out in their operation order, with each pair's two equal terms
    summed as one of twice the weight."""
    m = idx.m
    v, e = row[idx.n + order]
    values, errors = [v], [e]
    for j, c in enumerate(_leibniz_weights(order)):
        a, ea = row[m + j]
        b, eb = row[m + order - j]
        p = a * b
        w = p * c
        values.append(w)
        errors.append(c * (abs(a) * eb + abs(b) * ea + ea * eb + ulp(p)) + ulp(w))
    try:
        v = math.fsum(values)
        e = math.fsum(errors) + ulp(v)
    except OverflowError:  # math.fsum: a partial sum left the double range
        v = e = math.inf
    if not (math.isfinite(v) and math.isfinite(e)):
        raise CapabilityError(f"{idx.label()} derivative {order} overflows double precision")
    return EvalResult(sign * v, e)


def f_derivative(idx: FamilyIndex, order: int, x: float) -> EvalResult:
    """f^(order)(x) in closed form with propagated error bounds."""
    order = checks.integer("derivative order", order, 0)
    x = checks.positive_real("x", x)
    _check_cap(idx, order)
    row: dict = {}
    _fill(row, (idx.n + order, *range(idx.m, idx.m + order + 1)), x)
    return _assemble(idx, order, row)


def f_value(idx: FamilyIndex, x: float) -> EvalResult:
    """f(x) itself; delegates to f_derivative at order 0 so the two agree
    bit-for-bit on identical inputs."""
    return f_derivative(idx, 0, x)


def signed_derivative(idx: FamilyIndex, order: int, x: float) -> EvalResult:
    """(-1)^order * f^(order)(x): the quantity whose non-negativity CM asserts."""
    r = f_derivative(idx, order, x)
    return -r if order % 2 == 1 else r


# ---------------------------------------------------------------------------
# CM grid check
# ---------------------------------------------------------------------------


class CMEntry(NamedTuple):
    order: int
    x: float
    signed_value: EvalResult  # (-1)^order f^(order)(x)
    status: str  # "positive" | "inconclusive" | "violation"


class CMReport(NamedTuple):
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


def cm_check(idx: FamilyIndex, max_order: int, grid) -> CMReport:
    """Evaluate (-1)^l f^(l) for l = 0..max_order over the grid.

    Verdict: violation if any point is certified negative; otherwise
    inconclusive when the share of unresolved entries exceeds
    _INCONCLUSIVE_CAP; otherwise consistent_with_CM.
    """
    max_order = checks.integer("max_order", max_order, 0)
    pts = checks.grid(grid)
    _check_cap(idx, max_order)
    rows = _grid_rows(pts)
    entries: list[CMEntry] = []
    for order in range(max_order + 1):
        for x, row in zip(pts, rows):
            _fill(row, (idx.n + order, idx.m + order), x)
            sv = _assemble(idx, order, row, (-1.0) ** order)
            entries.append(CMEntry(order, x, sv, _STATUS[sv.certified_sign()]))
    violations = tuple(e for e in entries if e.status == "violation")
    inconclusive = tuple(e for e in entries if e.status == "inconclusive")
    if violations:
        verdict = "violation"
    elif len(inconclusive) > _INCONCLUSIVE_CAP * len(entries):
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
