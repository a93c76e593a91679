"""Trichotomy of f = [psi^(m)]^2 + psi^(n): trivially CM for odd n,
nontrivially CM only at (m, n) = (1, 2), sign-changing and non-monotonic for
every other even n.

Machinery: exact integer polynomials bounding f'_{m,2v}; leading-term sign
analysis at both ends; asymptotic envelopes; and an exact witness search for
sign changes and non-monotonicity.  The search probes x = 2^e, nearest to 1
first, and brackets f or f' there from exact.psi_bracket; a point is a
witness when certified_sign(10) certifies its bracket.  Every exact rational
here is rounded in exact: brackets and envelopes by enclose, audit margins
by minus_rational, audit bounds by nearest.

Two bounding polynomial families are shipped. The "printed" ones are kept
exactly as displayed in the source being verified; the "derived" ones are
re-derived from the double inequality

    (k-1)!/x^k + k!/(2 x^(k+1)) < |psi^(k)(x)| < (k-1)!/x^k + k!/x^(k+1)

applied to f' = |psi^(2v+1)| - 2 |psi^(m)| |psi^(m+1)|, and satisfy

    q_derived/(2 x^(2m+2v+3)) < f' < p_derived/(4 x^(2m+2v+3)).

They differ: every negative printed coefficient is half the derived one.
bound_check audits all four variants and flags printed failures as findings.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from . import checks
from .errors import CapabilityError, DomainError
from .evaluation import EvalResult, decide, log_grid
from .exact import enclose, minus, minus_rational, nearest, psi_bracket, times
# f_value is not called here any more; it stays importable from this module
# because bench/run.py's span tracer patches classifier.f_value by name.
from .cm_engine import (  # noqa: F401
    CMReport, FamilyIndex, _check_cap, cm_check, f_derivative, f_value,
)


# ---------------------------------------------------------------------------
# Exact integer polynomials
# ---------------------------------------------------------------------------


class IntPolynomial(NamedTuple):
    """Sparse polynomial with exact integer coefficients.

    terms are (coeff, power) pairs, powers strictly decreasing, no zeros.
    """

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "IntPolynomial":
        acc: dict[int, int] = {}
        for coeff, power in pairs:
            coeff = checks.integer("coefficient", coeff)
            power = checks.integer("power", power, 0)
            acc[power] = acc.get(power, 0) + coeff
        terms = tuple(
            (c, p) for p, c in sorted(acc.items(), reverse=True) if c != 0
        )
        return IntPolynomial(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def homogenized(self, a: int, b: int, degree: int) -> int:
        """b^degree * p(a/b), exactly: an integer when degree is at least
        the highest power."""
        return sum(coeff * a**power * b ** (degree - power) for coeff, power in self.terms)

    def leading(self) -> tuple[int, int]:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading term")
        return self.terms[0]

    def trailing(self) -> tuple[int, int]:
        if self.is_zero():
            raise DomainError("zero polynomial has no trailing term")
        return self.terms[-1]


# Every bounding numerator is a sum of the same five monomials,
#
#     a (2n)! x^(2m+2) + b (2n+1)! x^(2m+1) - c (m-1)! m! x^(2n+2)
#       - d [(m!)^2 + (m-1)!(m+1)!] x^(2n+1) - e m! (m+1)! x^(2n),
#
# with integer multipliers (a, b, c, d, e) per variant.  Key order is the
# order of the audit's findings and columns.
_BOUND_MULTIPLIERS = {
    "q_printed": (2, 1, 2, 2, 2),
    "q_derived": (2, 1, 4, 4, 4),
    "p_printed": (4, 4, 4, 2, 1),
    "p_derived": (4, 4, 8, 4, 2),
}


def _bound_numerator(name: str, m: int, n: int) -> IntPolynomial:
    m = checks.integer("m", m, 1)
    n = checks.integer("n", n, 1)
    a, b, c, d, e = _BOUND_MULTIPLIERS[name]
    fm1, fm, fm2 = math.factorial(m - 1), math.factorial(m), math.factorial(m + 1)
    return IntPolynomial.from_pairs([
        (a * math.factorial(2 * n), 2 * m + 2),
        (b * math.factorial(2 * n + 1), 2 * m + 1),
        (-c * fm1 * fm, 2 * n + 2),
        (-d * (fm * fm + fm1 * fm2), 2 * n + 1),
        (-e * fm * fm2, 2 * n),
    ])


def q_printed(m: int, n: int) -> IntPolynomial:
    """Lower-bound numerator as printed, terms with equal powers combined."""
    return _bound_numerator("q_printed", m, n)


def p_printed(m: int, n: int) -> IntPolynomial:
    """Upper-bound numerator as printed."""
    return _bound_numerator("p_printed", m, n)


def q_derived(m: int, n: int) -> IntPolynomial:
    """Re-derived lower-bound numerator: q/(2x^(2m+2n+3)) <= f'_{m,2n}.

    From f' > A_{2n+1} - 2 B_m B_{m+1} with A/B the double-inequality bounds.
    """
    return _bound_numerator("q_derived", m, n)


def p_derived(m: int, n: int) -> IntPolynomial:
    """Re-derived upper-bound numerator: f'_{m,2n} <= p/(4x^(2m+2n+3)).

    From f' < B_{2n+1} - 2 A_m A_{m+1}.
    """
    return _bound_numerator("p_derived", m, n)


def _check_end(end: str) -> None:
    if end not in ("zero", "infinity"):
        raise DomainError(f"end must be 'zero' or 'infinity', got {end!r}")


def leading_term_sign(poly: IntPolynomial, end: str) -> int:
    """Sign (+1/-1) of the coefficient that dominates at the given end:
    highest power toward infinity, lowest power toward zero."""
    _check_end(end)
    coeff, _ = poly.leading() if end == "infinity" else poly.trailing()
    return 1 if coeff > 0 else -1


# ---------------------------------------------------------------------------
# Bound audit
# ---------------------------------------------------------------------------


# Status of a bound at a point by the certified sign of its margin.
_AUDIT_STATUS = {1: "holds", 0: "inconclusive", -1: "fails"}


class BoundEntry(NamedTuple):
    x: float
    f_prime: EvalResult
    bounds: dict[str, float]     # bound name -> exact-rounded bound value
    statuses: dict[str, str]     # bound name -> "holds" | "fails" | "inconclusive"
    margins: dict[str, float]    # signed margin in the direction that should hold


class BoundAuditReport(NamedTuple):
    m: int
    n: int
    grid: tuple[float, ...]
    entries: tuple[BoundEntry, ...]
    findings: tuple[str, ...]    # printed-bound failures, documented not fatal
    printed_p_ok: bool
    refuted: bool                # some derived bound certified to fail
    undecided: tuple[float, ...]  # x where a derived bound is inconclusive


def bound_check(m: int, n: int, grid) -> BoundAuditReport:
    """Audit f'_{m,2n} against all four bound variants over the grid.

    Lower bounds should satisfy f' >= bound, upper bounds f' <= bound; a
    status is only "fails" when the violation clears the margin's own bound
    (exact.minus_rational of f' and the exact bound).  Printed-bound
    failures become findings.  refuted and undecided are decide's reading
    of the derived bounds' signs: a derived bound certified to fail refutes
    (and should never happen), and one that rounding cannot resolve leaves
    its x undecided.
    """
    m = checks.integer("m", m, 1)
    n = checks.integer("n", n, 1)
    pts = checks.grid(grid)
    idx = FamilyIndex(m, 2 * n)
    _check_cap(idx, 1)  # before the factorials, which grow with m and n
    numerators = {name: _bound_numerator(name, m, n) for name in _BOUND_MULTIPLIERS}
    entries: list[BoundEntry] = []
    findings: list[str] = []
    marks: list[tuple[float, int]] = []
    degree = 2 * m + 2 * n + 3  # above every numerator power
    for x in pts:
        fp = f_derivative(idx, 1, x)
        xn, xd = x.as_integer_ratio()
        power = xn**degree  # x^degree = xn^degree / xd^degree
        bounds: dict[str, float] = {}
        statuses: dict[str, str] = {}
        margins: dict[str, float] = {}
        for name, poly in numerators.items():
            lower = name.startswith("q")
            # q/(2 x^(2m+2n+3)) bounds f' from below, p/(4 x^(2m+2n+3)) from
            # above; the bound and the margin each round their exact value once
            num, den = poly.homogenized(xn, xd, degree), (2 if lower else 4) * power
            b = bounds[name] = nearest(num, den)
            margin = minus_rational(fp, num, den)
            if not lower:
                margin = -margin
            sign = margin.certified_sign()
            status = _AUDIT_STATUS[sign]
            statuses[name] = status
            margins[name] = margin.value
            if name.endswith("derived"):
                marks.append((x, sign))
            elif name == "p_printed" and sign != 1:
                findings.append(f"printed upper bound {status} at (m={m}, n={n}), "
                                f"x={x:.6g}: margin {margin.value:.3e}")
            elif sign != 1:
                findings.append(f"printed lower bound {status} at (m={m}, n={n}), "
                                f"x={x:.6g}: f'={fp.value:.6e} vs bound {b:.6e}")
        entries.append(BoundEntry(x, fp, bounds, statuses, margins))
    refuted, undecided = decide(marks)
    return BoundAuditReport(
        m=m,
        n=n,
        grid=pts,
        entries=tuple(entries),
        findings=tuple(findings),
        printed_p_ok=all(e.statuses["p_printed"] == "holds" for e in entries),
        refuted=refuted,
        undecided=undecided,
    )


# ---------------------------------------------------------------------------
# Combinatorial quantities and envelopes
# ---------------------------------------------------------------------------


def binom_quantity(i: int, m: int) -> tuple[int, str]:
    """i * C(2i-1, m) with its case label.

    The three cases are exhaustive and mutually exclusive: the value is 1
    exactly when i = m = 1, zero exactly when 2i-1 < m, and at least 2
    otherwise (which forces i >= 2).
    """
    i = checks.integer("i", i, 1)
    m = checks.integer("m", m, 1)
    value = i * math.comb(2 * i - 1, m)
    if i == 1 and m == 1:
        return value, "equals_one"
    if 2 * i - 1 < m:
        return value, "equals_zero"
    return value, "at_least_two"


def discriminant_mn(m: int) -> int:
    """1 - m*C(2m-1, m-1): zero at m = 1, negative for every m >= 2."""
    m = checks.integer("m", m, 1)
    return 1 - m * math.comb(2 * m - 1, m - 1)


def envelope(idx: FamilyIndex, x: float, end: str) -> EvalResult:
    """Asymptotic envelope of f_{m,2v} at the requested end, v = n/2.

    infinity: [(m-1)!]^2/x^(2m) * (1 - (2v-1)!/[(m-1)!]^2 * x^(2(m-v)))
    zero:     (m!)^2/x^(2(m+1)) * (1 - (2v)!/(m!)^2 * x^(2(m-v)+1))

    Exact integer arithmetic, rounded once; the sign of the envelope
    predicts the sign of f at that end (degenerate at m = v = 1, where the
    infinity-end leading coefficients cancel).
    """
    _check_end(end)
    if idx.n % 2 != 0:
        raise DomainError(f"envelope applies to even second index, got {idx.n}")
    x = checks.positive_real("x", x)
    m, v = idx.m, idx.n // 2
    # both ends are c1/x^e1 - c2/x^e2, exactly over x = a/b
    if end == "infinity":
        c1, e1, c2, e2 = math.factorial(m - 1) ** 2, 2 * m, math.factorial(2 * v - 1), 2 * v
    else:
        c1, e1, c2, e2 = math.factorial(m) ** 2, 2 * m + 2, math.factorial(2 * v), 2 * v + 1
    a, b = x.as_integer_ratio()
    d = minus((c1 * b**e1, a**e1), (c2 * b**e2, a**e2))
    return enclose(d, d)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


# The factor by which |value| must clear abs_error to certify a witness sign
# (below 1 a witness could be certified inside its own error band).
_CERTIFY_FACTOR = 10.0


class _SearchParamsFields(NamedTuple):
    x_min: float
    x_max: float


class SearchParams(_SearchParamsFields):
    """The window [x_min, x_max]: the witness search probes the powers of
    two inside it, nearest to 1 first.  The default [2^-128, 2^128] holds
    every witness exponent e of the even-n members with m, v <= 15 (|e| <= 28)
    and, in a seeded scan, with m, v <= 60 (|e| <= 117); a member whose
    brackets leave the doubles, like (16,32), still fails in milliseconds,
    where the whole double range takes seconds."""

    __slots__ = ()

    def __new__(cls, x_min: float = 2.0**-128, x_max: float = 2.0**128) -> "SearchParams":
        checks.finite("x_max", x_max)
        if not (0.0 < x_min < x_max):
            raise DomainError("need 0 < x_min < x_max")
        return tuple.__new__(cls, (x_min, x_max))


DEFAULT_SEARCH = SearchParams()


class Witness(NamedTuple):
    """Certified pair of points with opposite signs of the probed quantity.

    kind "sign_change": quantity is f itself, x_positive/x_negative carry
    certified f > 0 resp. f < 0.  kind "non_monotonic": quantity is f', so
    x_positive is a certified increase point and x_negative a decrease point.
    Both points are powers of two; each value is the midpoint of an exact
    bracket of the quantity there, and each abs_error covers the bracket.
    """

    kind: str
    x_positive: float
    x_negative: float
    positive: EvalResult
    negative: EvalResult


def _bracket(m: int, even_n: int, order: int, a: int, b: int):
    """Exact bounds of f (order 0) or f' (order 1) at a/b, for even n:

        f = |psi^(m)|^2 - |psi^(n)|,   f' = |psi^(n+1)| - 2 |psi^(m)| |psi^(m+1)|
    """
    lm, um = psi_bracket(m, a, b)
    if order == 0:
        ln, un = psi_bracket(even_n, a, b)
        return minus(times(1, lm, lm), un), minus(times(1, um, um), ln)
    ln, un = psi_bracket(even_n + 1, a, b)
    lm1, um1 = psi_bracket(m + 1, a, b)
    return minus(ln, times(2, um, um1)), minus(un, times(2, lm, lm1))


def _exponents(search: SearchParams) -> Iterator[int]:
    """The e with x_min <= 2^e <= x_max in probe order: 0, 1, -1, 2, -2, ...,
    generated lazily: a search stops at its first witness pair."""
    mant, e_min = math.frexp(search.x_min)
    if mant == 0.5:
        e_min -= 1
    e_max = math.frexp(search.x_max)[1] - 1
    for d in range(max(-e_min, e_max) + 1):
        if e_min <= d <= e_max:
            yield d
        if d and e_min <= -d <= e_max:
            yield -d


def _witness_search(m: int, even_n: int, order: int, kind: str, search: SearchParams) -> Witness:
    """Probe f (order 0) or f' (order 1) at the powers of two in the window
    until one point of each sign is certified.

    A probe whose bracket does not fit a double is skipped.  A window that
    runs out with no witness refutes nothing: CapabilityError says how many
    probes certified each sign and how many were skipped.
    """
    found: dict[int, tuple[float, EvalResult]] = {}
    counts = {1: 0, -1: 0}
    skipped = 0
    for e in _exponents(search):
        a, b = (2**e, 1) if e >= 0 else (1, 2**-e)
        try:
            ev = enclose(*_bracket(m, even_n, order, a, b))
        except CapabilityError:
            skipped += 1
            continue
        s = ev.certified_sign(_CERTIFY_FACTOR)
        if s:
            counts[s] += 1
            found.setdefault(s, (math.ldexp(1.0, e), ev))
            if len(found) == 2:
                break
    else:
        raise CapabilityError(
            f"no certified {kind} witness for {FamilyIndex(m, even_n).label()} at the "
            f"powers of two in [{search.x_min:g}, {search.x_max:g}]: "
            f"{counts[1]} certified positive, {counts[-1]} certified negative, "
            f"{skipped} outside the double range")
    (xp, ep), (xn, en) = found[1], found[-1]
    return Witness(
        kind=kind,
        x_positive=xp,
        x_negative=xn,
        positive=ep,
        negative=en,
    )


def _validate_even_pair(m: int, even_n: int) -> tuple[int, int]:
    m = checks.integer("m", m, 1)
    even_n = checks.integer("second index", even_n, 2)
    if even_n % 2:
        raise DomainError(f"second index must be even, got {even_n}")
    if m == 1 and even_n == 2:
        raise DomainError("the (1,2) member is completely monotonic; no witness exists")
    return m, even_n


def find_sign_change(m: int, even_n: int, search: SearchParams = DEFAULT_SEARCH) -> Witness:
    """Certified sign-change witness for f_{m,even_n}, (m, even_n) != (1,2).

    The envelope signs give f opposite signs near 0 and near infinity, but
    a window need not reach both regimes, nor certify a probe there: a
    narrow window like [1.1, 1.9] and (16,32) at the default window, whose
    brackets leave the doubles, both raise CapabilityError.
    """
    m, even_n = _validate_even_pair(m, even_n)
    return _witness_search(m, even_n, 0, "sign_change", search)


def find_nonmonotonic(m: int, even_n: int, search: SearchParams = DEFAULT_SEARCH) -> Witness:
    """Certified non-monotonicity witness: points where f'_{m,even_n} is
    certified positive resp. negative."""
    m, even_n = _validate_even_pair(m, even_n)
    return _witness_search(m, even_n, 1, "non_monotonic", search)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class ClassificationEntry(NamedTuple):
    index: FamilyIndex
    verdict: str  # "CM_trivial" | "CM_nontrivial" | "sign_changing_nonmonotonic"
    cm_report: CMReport | None
    sign_witness: Witness | None
    monotonicity_witness: Witness | None


def expected_verdict(m: int, n: int) -> str:
    """Closed-form trichotomy rule: odd n trivially CM, (1,2) nontrivially
    CM, all other even n neither sign-stable nor monotonic."""
    if n % 2 == 1:
        return "CM_trivial"
    if (m, n) == (1, 2):
        return "CM_nontrivial"
    return "sign_changing_nonmonotonic"


def classify(
    m: int,
    n: int,
    cm_max_order: int = 4,
    cm_grid=None,
    search: SearchParams = DEFAULT_SEARCH,
) -> ClassificationEntry:
    """Classify f_{m,n} by expected_verdict and attach numeric evidence.

    CM verdicts carry a grid CM report, whatever its verdict: the report can
    back the rule, refute it (a certified violation) or leave it undecided,
    and the caller reads refuted and undecided.  The sign-changing verdict
    carries both witness kinds; a search that certifies none raises
    CapabilityError.
    """
    idx = FamilyIndex(m, n)
    m, n = idx
    verdict = expected_verdict(m, n)
    if verdict in ("CM_trivial", "CM_nontrivial"):
        grid = tuple(cm_grid) if cm_grid is not None else log_grid(0.01, 100.0, 40)
        return ClassificationEntry(idx, verdict, cm_check(idx, cm_max_order, grid), None, None)
    sw = find_sign_change(m, n, search)
    mw = find_nonmonotonic(m, n, search)
    return ClassificationEntry(idx, verdict, None, sw, mw)
