"""Complete-monotonicity checks for f(x) = [psi^(m)(x)]^2 + psi^(n)(x).

The l-th derivative in closed form, by the product rule:

    f^(l) = psi^(n+l) + sum_{j=0..l} C(l,j) psi^(m+j) psi^(m+l-j)

_pair_terms computes one point's Leibniz terms from a psi row, {k: (value,
abs_error) of psi^(k)(x)}, and _assemble sums them with psi^(n+l) into
f^(l)(x) at each point of a column (f_derivative passes a one-point column),
in plain floats by the rules and operation order of EvalResult arithmetic.
The terms j and l-j of the sum are bit-identical (products commute), so each
pair is one term of weight 2 C(l,j): doubling is exact, and math.fsum rounds
the exact sum once.  The one exception is a product below 2^-1022, where the
term's rounding charge ulp(2w) is less than the 2 ulp(w) of two terms, so
the bound can come out one ulp lower; it still covers.

Grid rows are kept only while later calls share them: the module-level
table _grid_rows keeps the rows of the last grid, one row per grid point,
and the psi orders that every row holds.  cm_check adds {m..m+L} and
{n..n+L} to each, so consecutive members on one grid (a CM sweep, the CM
members of a classification) share the evaluations, and an order column
whose two psi orders every row holds probes no row.  f_derivative fills a
fresh row of {n+l} and {m..m+l} for its one point: single points are not
shared, since the witness search of polycm.classifier brackets psi exactly
and calls no polygamma.

The squared part depends on m alone, so cm_check keeps its pair terms
(values and bounds, per order a column of one _pair_terms result per point)
beside the rows of the grid, for the last m only: the bench's cm_sweep and
the 6x6 classification of its witness_scan and of the CLI's classify visit
members m-major, so an earlier m never comes back on the same grid.  Each
entry then sums psi^(n+l) and the kept terms with one math.fsum for the
values and one for the bounds, the inputs and order of a fresh row, so every
entry equals f_derivative bit for bit.  A column is kept only once all its
points are built, so a call that raises leaves no partial column behind.

cm_check works one order column at a time: it fills the column's rows, then
assembles the column, certifies its signs and builds its entries.  The
failure it reports is still the first in point-major order: a fill that
raises at point i is held until points 0..i-1 are assembled, whose overflow
comes first, and its orders are not marked complete.  polygamma runs only
for an order the row lacks, so one call evaluates each psi^(k)(x) at most
once, and a call after a raise asks only for what the raise left unfilled.
polygamma takes no error budget: each entry's bound is what its one closed
series guarantees, a function of (k, x) alone.

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
from itertools import repeat
from typing import NamedTuple

from . import checks
from .errors import CapabilityError
from .evaluation import EvalResult, ulp
from .polygamma import ORDER_CAP, polygamma

# Builds a record without its own __new__: an EvalResult only right after
# _assemble repeats the constructor's checks, a CMEntry because its
# generated __new__ checks nothing.
_tuple_new = tuple.__new__

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
def _grid_rows(grid: tuple[float, ...]) -> tuple[tuple[dict, ...], dict, set]:
    """The shared state of a validated grid, the same objects for the same
    grid until evicted: a psi row per point, the kept squared terms
    {m: {order: one _pair_terms result per point}} of the last m, and the
    psi orders that every row holds."""
    return tuple({} for _ in grid), {}, set()


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


def _pair_terms(m: int, order: int, row: dict) -> tuple[list, list]:
    """The values and bounds of the terms of the order-th derivative of
    [psi^(m)]^2 at one point, from a row holding m..m+order: one term per
    pair j, order-j, by the arithmetic of EvalResult.__mul__ then
    EvalResult.scaled, in their operation order."""
    values, errors = [], []
    for j, c in enumerate(_leibniz_weights(order)):
        a, ea = row[m + j]
        b, eb = row[m + order - j]
        p = a * b
        w = p * c
        values.append(w)
        errors.append(c * (abs(a) * eb + abs(b) * ea + ea * eb + ulp(p)) + ulp(w))
    return values, errors


def _assemble(idx: FamilyIndex, order: int, rows, columns, sign: float = 1.0) -> list[EvalResult]:
    """sign * f^(order)(x) at each point of a column, from its rows (each
    holding n+order) and the points' _pair_terms, in point order: the
    arithmetic of result_sum over psi^(n+order) and the pair terms, in that
    order.  The first point whose sum leaves the double range raises."""
    kn = idx.n + order
    fsum, isfinite = math.fsum, math.isfinite
    pairs = []
    for row, (values, errors) in zip(rows, columns):
        v, e = row[kn]
        try:
            v = fsum([v, *values])
            e = fsum([e, *errors]) + ulp(v)
        except OverflowError:  # math.fsum: a partial sum left the double range
            e = math.inf
        if not isfinite(e):  # also when v is not finite: then neither is ulp(v)
            raise CapabilityError(f"{idx.label()} derivative {order} overflows double precision")
        pairs.append((sign * v, e))
    # EvalResult's own check, just made: e is finite, so v is, and e, a sum
    # of bounds, is not negative
    return list(map(_tuple_new, repeat(EvalResult), pairs))


def f_derivative(idx: FamilyIndex, order: int, x: float) -> EvalResult:
    """f^(order)(x) in closed form with propagated error bounds."""
    order = checks.integer("derivative order", order, 0)
    x = checks.positive_real("x", x)
    _check_cap(idx, order)
    row: dict = {}
    _fill(row, (idx.n + order, *range(idx.m, idx.m + order + 1)), x)
    return _assemble(idx, order, (row,), (_pair_terms(idx.m, order, row),))[0]


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
    m, n = idx
    rows, squares, complete = _grid_rows(pts)
    kept = squares.get(m)
    if kept is None:  # an earlier m does not come back: see the module docstring
        squares.clear()
        kept = squares[m] = {}
    entries: list[CMEntry] = []
    unresolved: dict[int, list[CMEntry]] = {0: [], -1: []}
    for order in range(max_order + 1):
        kn, km = n + order, m + order
        held, live = None, rows
        if kn not in complete or km not in complete:
            for i, (x, row) in enumerate(zip(pts, rows)):
                try:
                    _fill(row, (kn, km), x)
                except CapabilityError as exc:
                    # raised once the points before it are assembled, whose
                    # own failures come first point by point
                    held, live = exc, rows[:i]
                    break
            else:
                complete.update((kn, km))
        column = kept.get(order)
        if column is None:
            column = list(map(_pair_terms, repeat(m), repeat(order), live))
            if held is None:
                kept[order] = column  # complete: a raise leaves no partial column
        results = _assemble(idx, order, live, column, (-1.0) ** order)
        if held is not None:
            raise held
        signs = list(map(EvalResult.certified_sign, results))
        added = list(map(_tuple_new, repeat(CMEntry),
                         zip(repeat(order), pts, results, map(_STATUS.__getitem__, signs))))
        entries += added
        if min(signs) < 1:
            for s, entry in zip(signs, added):
                if s < 1:
                    unresolved[s].append(entry)
    violations, inconclusive = tuple(unresolved[-1]), tuple(unresolved[0])
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
