"""Complete-monotonicity checks for f(x) = [psi^(m)(x)]^2 + psi^(n)(x).

The l-th derivative in closed form, by the product rule:

    f^(l) = psi^(n+l) + sum_{j=0..l} C(l,j) psi^(m+j) psi^(m+l-j)

_pair_terms computes one point's Leibniz terms from a psi row, {k: (value,
abs_error) of psi^(k)(x)}, and _assemble sums them with psi^(n+l) into
f^(l)(x) at each point of a column, in plain floats by the rules and
operation order of EvalResult arithmetic.  The terms j and l-j of the sum
are bit-identical (products commute), so each pair is one term of weight
2 C(l,j): doubling is exact, and math.fsum rounds the exact sum once.  The
one exception is a product below 2^-1022, where the term's rounding charge
ulp(2w) is less than the 2 ulp(w) of two terms, so the bound can come out
one ulp lower; it still covers.

_assemble fills, builds and sums a column in one pass, point by point, so
a call evaluates each psi^(k)(x) at most once and raises the first failure
point by point.  A new column whose rows hold every order it needs has its
terms built together first, so the kept column lies together in memory:
building evaluates no psi, so it cannot change that failure.  polygamma takes no error budget: each bound is what its
one closed series guarantees, a function of (k, x) alone.  f_derivative is
the pass over one point on a fresh row: single points are not shared, since
the witness search of polycm.classifier brackets psi exactly and calls no
polygamma.

State is kept only while later calls share it.  _grid_rows keeps the psi
rows of the last grid, one per point: consecutive members on one grid (a
CM sweep, the CM members of a classification) share the evaluations.  The
squared part depends on m alone, so _squares keeps its pair terms, a
column of one _pair_terms result per point for each order, for the last m
on the last grid: the bench's cm_sweep and the 6x6 classification of its
witness_scan and of the CLI's classify visit members m-major, so an
earlier m never comes back on the same grid.  A column is kept only after
its pass ends, so a call that raises keeps no partial column.  Each entry
sums psi^(n+l) and the kept terms in the inputs and order of a fresh row,
so every entry equals f_derivative bit for bit.

A CM check evaluates (-1)^l f^(l) over a grid and classifies each point by
EvalResult.certified_sign: certified positive, certified violation
(value < -abs_error), or inconclusive (|value| <= abs_error).  Violations are
never declared inside the error band; analytic claims must not be refuted by
rounding.  A Leibniz sum that leaves the double range raises
CapabilityError.  The identity checks on f (finite differences, telescoping,
the shift difference) live in the tests' reference module, tests/reference.py.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, repeat
from typing import NamedTuple

from . import checks
from .errors import CapabilityError
from .evaluation import EvalResult, decide, ulp
from .polygamma import ORDER_CAP, polygamma

# Builds a record without its own __new__: an EvalResult only right after
# _assemble repeats the constructor's checks, a CMEntry because its
# generated __new__ checks nothing.
_tuple_new = tuple.__new__

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
    """A psi row per point of a validated grid, the same rows for the same
    grid until evicted."""
    return tuple({} for _ in grid)


@lru_cache(maxsize=1)  # the last m on the last grid: see the module docstring
def _squares(grid: tuple[float, ...], m: int) -> dict[int, list]:
    """The kept squared terms of m on a validated grid: {order: a column of
    one _pair_terms result per point}."""
    return {}


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


def _assemble(idx: FamilyIndex, order: int, pts, rows, column: list,
              sign: float = 1.0) -> list[EvalResult]:
    """sign * f^(order)(x) at each point, in point order: math.fsum of
    psi^(n+order) and the point's _pair_terms, in that order, and of their
    bounds plus one ulp of the sum, bit for bit as result_sum in
    tests/reference.py.  A point past the end of the column gets the orders
    n+order and m..m+order that its row lacks, and its terms appended; any
    other point's row gets n+order only when the lookup finds it lacking.
    The first point whose psi polygamma refuses, or whose sum leaves the
    double range, raises."""
    m, kn = idx.m, idx.n + order
    needed = (kn, *range(m, m + order + 1))
    fsum, isfinite = math.fsum, math.isfinite
    if not column:
        # when every row holds the orders the terms need, build them all
        # before the first entry's results, so the kept column lies together
        # in memory for the members that reuse it.  Building evaluates no psi
        # and raises only KeyError, which leaves the column empty.
        try:
            column.extend(list(map(_pair_terms, repeat(m), repeat(order), rows)))
        except KeyError:
            pass
    pairs = []
    # the column's iterator is spent before the first append: the points
    # past its end get None
    for x, row, terms in zip(pts, rows, chain(column, repeat(None))):
        if terms is None:
            _fill(row, needed, x)
            terms = _pair_terms(m, order, row)
            column.append(terms)
        try:
            v, e = row[kn]
        except KeyError:
            _fill(row, (kn,), x)
            v, e = row[kn]
        values, errors = terms
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
    return _assemble(idx, order, (x,), ({},), [])[0]


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
    refuted: bool  # some entry certified negative
    undecided: tuple[float, ...]  # x of the entries that rounding leaves undecided


def cm_check(idx: FamilyIndex, max_order: int, grid) -> CMReport:
    """Evaluate (-1)^l f^(l) for l = 0..max_order over the grid.

    refuted and undecided are decide's reading of the entries' signs.
    Verdict: violation if refuted; otherwise inconclusive if any x is
    undecided; consistent_with_CM only when every entry is certified
    positive.
    """
    max_order = checks.integer("max_order", max_order, 0)
    pts = checks.grid(grid)
    _check_cap(idx, max_order)
    rows, kept = _grid_rows(pts), _squares(pts, idx.m)
    entries: list[CMEntry] = []
    marks: list[tuple[float, int]] = []
    for order in range(max_order + 1):
        column = kept.get(order, [])
        results = _assemble(idx, order, pts, rows, column, (-1.0) ** order)
        kept[order] = column  # after the pass: a raise keeps no partial column
        signs = list(map(EvalResult.certified_sign, results))
        entries += map(_tuple_new, repeat(CMEntry),
                       zip(repeat(order), pts, results, map(_STATUS.__getitem__, signs)))
        if min(signs) < 1:  # an all-positive column adds no marks
            marks += zip(pts, signs)
    refuted, undecided = decide(marks)
    return CMReport(
        index=idx,
        max_order=max_order,
        grid=pts,
        entries=tuple(entries),
        verdict=("violation" if refuted else
                 "inconclusive" if undecided else "consistent_with_CM"),
        refuted=refuted,
        undecided=undecided,
    )
