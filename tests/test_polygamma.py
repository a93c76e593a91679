"""Digamma/polygamma evaluation: frozen references, route agreement, errors.

Reference constants below are 40-digit values computed independently with
arbitrary-precision arithmetic from the defining series; doubles hold their
leading 17 digits.
"""

from __future__ import annotations

import importlib
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycm import (
    CapabilityError,
    DomainError,
    EULER_GAMMA,
    EvalResult,
    digamma,
    log_grid,
    polygamma,
)
from reference import (
    polygamma_quadrature,
    recurrence_residual,
    reference_digamma,
    reference_polygamma,
)

psi_mod = importlib.import_module("polycm.polygamma")

GAMMA_40 = 0.5772156649015328606065120900824024310422
PI2_OVER_6 = 1.644934066848226436472415166646025189219
PSI2_AT_1 = -2.404113806319188570799476323022899981530  # -2 zeta(3)
PSI3_AT_1 = 6.493939402266829149096022179247007416648  # pi^4 / 15


def test_gamma_constant_validated_by_defining_series():
    # gamma = sum_{k>=1} [1/k - ln(1+1/k)]; terms positive and decreasing,
    # so the integral test brackets the tail of the partial sum.
    K = 1_000_000
    partial = math.fsum([1.0 / k - math.log1p(1.0 / k) for k in range(1, K + 1)])
    a = float(K + 1)
    # closed-form integral of the term function over [K+1, inf)
    integral = (a + 1.0) * math.log1p(1.0 / a) - 1.0
    first_omitted = 1.0 / a - math.log1p(1.0 / a)
    estimate = partial + integral + first_omitted / 2.0
    uncertainty = first_omitted / 2.0 + 2e-14
    assert abs(EULER_GAMMA - estimate) <= uncertainty
    assert abs(EULER_GAMMA - GAMMA_40) <= math.ulp(1.0)


def test_digamma_at_one_is_minus_gamma():
    d = digamma(1.0)
    assert d.abs_error <= 1e-12
    assert abs(d.value + GAMMA_40) <= d.abs_error + math.ulp(1.0)


def test_digamma_shift_identity():
    a = digamma(2.0)
    b = digamma(1.0)
    assert abs(a.value - (b.value + 1.0)) <= a.abs_error + b.abs_error + 1e-15


def test_digamma_log_bracket_at_large_argument():
    x = 1e6
    d = digamma(x)
    lo = math.log(x) - 1.0 / x
    hi = math.log(x) - 0.5 / x
    pad = 3 * math.ulp(hi)
    assert d.value - d.abs_error - pad > lo
    assert d.value + d.abs_error + pad < hi


def test_digamma_against_brute_series():
    for x in (0.3, 1.0, 2.5, 17.0, 400.0):
        d = digamma(x)
        r = reference_digamma(x, target=1e-12)
        assert abs(d.value - r.value) <= d.abs_error + r.abs_error


def test_trigamma_at_one():
    p = polygamma(1, 1.0)
    assert p.abs_error <= 1e-12
    assert abs(p.value - PI2_OVER_6) <= p.abs_error + math.ulp(2.0)
    r = reference_polygamma(1, 1.0, target=1e-12)
    assert abs(p.value - r.value) <= p.abs_error + r.abs_error


def test_higher_orders_at_one():
    p2 = polygamma(2, 1.0)
    assert abs(p2.value - PSI2_AT_1) <= p2.abs_error + math.ulp(4.0)
    p3 = polygamma(3, 1.0)
    assert abs(p3.value - PSI3_AT_1) <= p3.abs_error + math.ulp(8.0)


def test_order_three_positive_at_half():
    p = polygamma(3, 0.5)
    assert p.certified_sign() == 1


def test_sign_alternation_certified():
    for n in range(1, 9):
        for x in (0.2, 1.0, 3.7, 25.0):
            p = polygamma(n, x)
            expected = 1 if n % 2 == 1 else -1
            assert math.copysign(1.0, p.value) == expected
            assert abs(p.value) > p.abs_error


def test_route_agreement_series_vs_brute():
    for n in range(1, 9):
        for x in (0.5, 1.0, 2.0, 10.0):
            p = polygamma(n, x)
            r = reference_polygamma(n, x, target=1e-11)
            assert abs(p.value - r.value) <= p.abs_error + r.abs_error


def test_route_agreement_series_vs_quadrature():
    for n in range(1, 9):
        for x in (0.5, 1.0, 2.0, 10.0):
            p = polygamma(n, x)
            q = polygamma_quadrature(n, x)
            assert abs(p.value - q) <= p.abs_error + 1e-12 * abs(q)
            assert abs(p.value - q) <= 1e-9 * abs(p.value)


def test_quadrature_bracket_at_large_argument():
    x = 50.0
    q = polygamma_quadrature(1, x)
    lo = 1.0 / x + 1.0 / (2.0 * x * x)
    hi = 1.0 / x + 1.0 / (x * x)
    pad = 3 * math.ulp(hi)
    assert q - pad > lo
    assert q + pad < hi


@pytest.mark.parametrize(
    "n, x",
    [(2, 1e-3), (3, 1e-3), (3, 3e-3), (4, 3e-3), (6, 10.0), (8, 10.0), (8, 100.0),
     (1, 1e6), (8, 1e5), (64, 1e3)],
)
def test_quadrature_estimate_against_mpmath(n, x):
    # the integrand peaks at t = n/x with width 1/x; a split or a sampling
    # scale that misses the peak loses digits
    mpmath = pytest.importorskip("mpmath")
    q = polygamma_quadrature(n, x)
    with mpmath.workdps(50):
        truth = mpmath.psi(n, mpmath.mpf(x))
        assert abs(mpmath.mpf(q) - truth) <= 1e-12 * abs(truth)


def test_monotone_decay_along_grid():
    for n in range(1, 5):
        prev = None
        for x in log_grid(0.1, 50.0, 12):
            cur = polygamma(n, x)
            if prev is not None:
                gap = abs(prev.value) - abs(cur.value)
                assert gap > prev.abs_error + cur.abs_error
            prev = cur


def test_recurrence_examples():
    # psi'(2) = psi'(1) - 1, checked through independent evaluations
    a = polygamma(1, 2.0)
    b = polygamma(1, 1.0)
    assert abs(a.value - (b.value - 1.0)) <= a.abs_error + b.abs_error + 1e-15
    for n, x, cap in ((2, 1.0, 1e-11), (1, 3.0, 1e-11), (5, 0.25, 1e-10)):
        r = recurrence_residual(n, x)
        assert r.value <= cap
        assert r.value <= r.abs_error


def test_recurrence_residual_seeded_sample():
    rng = random.Random(1207)
    for _ in range(12):
        n = rng.randint(1, 8)
        x = math.exp(rng.uniform(0.0, math.log(10.0)))
        r = recurrence_residual(n, x)
        assert r.value <= 1e-11
        assert r.value <= r.abs_error


def test_domain_errors():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-1.0)
    with pytest.raises(DomainError):
        digamma(float("nan"))
    with pytest.raises(DomainError):
        polygamma(0, 1.0)
    with pytest.raises(DomainError):
        polygamma(-2, 1.0)
    with pytest.raises(DomainError):
        polygamma(True, 1.0)
    with pytest.raises(DomainError):
        polygamma(1, 0.0)


def test_capability_limits():
    with pytest.raises(CapabilityError):
        polygamma(121, 1.0)
    with pytest.raises(CapabilityError):
        polygamma(60, 1e-300)


@pytest.mark.parametrize(
    "n, x",
    [
        (61, 2e5),  # x^-61 is subnormal: the value used to lose all its bits
        (61, 421413.5942223906),  # x^-61 underflows to zero
        (64, 1e4),
        (62, 1e3),
        (40, 1e6),
        (8, 1e12),
    ],
)
def test_underflow_edge_raises_or_holds_bound(n, x):
    mpmath = pytest.importorskip("mpmath")
    try:
        r = polygamma(n, x)
    except CapabilityError:
        return
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(r.value) - mpmath.psi(n, mpmath.mpf(x))) <= r.abs_error


@pytest.mark.parametrize("n, x", [(1, 1e200), (3, 1e100), (2, 1e150), (1, 1e300)])
def test_underflowed_half_sample_still_returns(n, x):
    # x^-n is a normal double while x^-(n+1) underflows: the half-sample
    # term is below one ulp of the value, so a value with a bound is due
    mpmath = pytest.importorskip("mpmath")
    r = polygamma(n, x)
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(r.value) - mpmath.psi(n, mpmath.mpf(x))) <= r.abs_error


# the largest double at which 1/x overflows, found by bisection
DIGAMMA_EDGE = 5.562684646268003e-309


@pytest.mark.parametrize("x", [5e-324, 1e-310, DIGAMMA_EDGE])
def test_digamma_near_zero_is_a_capability_error(x):
    # 1/x overflows: the value leaves the double range, which is the
    # program's limit (exit 3), not a bad argument (DomainError, exit 2)
    with pytest.raises(CapabilityError, match=r"\|psi\(.*\)\| overflows double precision"):
        digamma(x)


@pytest.mark.parametrize("x", [math.nextafter(DIGAMMA_EDGE, 1.0), 7.24241751910358e-309])
def test_digamma_returns_a_bound_wherever_one_over_x_fits(x):
    # the upper neighbour of the edge, and the point where the -gamma
    # series' rounding charge overflowed (it now uses about 0.045 of its bound)
    mpmath = pytest.importorskip("mpmath")
    d = digamma(x)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(d.value) - mpmath.digamma(mpmath.mpf(x))) <= d.abs_error


def test_large_magnitude_keeps_a_relative_bound():
    # psi^(8)(0.01) ~ 2e22: no absolute 1e-12 is reachable, and the bound
    # stays within 1e-13 of the closed-form lower bound on the magnitude
    big = polygamma(8, 0.01)
    lower = math.factorial(7) / 0.01**8 + math.factorial(8) / (2 * 0.01**9)
    assert 1e20 < lower < abs(big.value)
    assert big.abs_error <= 1e-13 * lower


def test_bounds_stay_tight():
    # One closed series and no budget: nothing retries a loose bound, so a
    # series change that loosens bounds must fail here.  Every bound stays
    # within relative 1e-13 (absolute 1e-12 near zero); the largest ratio
    # seen on this sample is about 0.15.
    rng = random.Random(1018)
    returned = 0
    for _ in range(3000):
        n = rng.randint(1, 120)
        x = math.exp(rng.uniform(math.log(1e-4), math.log(1e14)))
        d = digamma(x)
        assert d.abs_error <= max(1e-12, 1e-13 * (abs(math.log(x)) + 1.0 / x + 1.0)), x
        try:
            p = polygamma(n, x)
        except CapabilityError:
            continue
        assert p.abs_error <= max(1e-12, 1e-13 * abs(p.value)), (n, x)
        returned += 1
    assert returned > 1000


@given(
    n=st.integers(min_value=1, max_value=6),
    x=st.floats(min_value=0.05, max_value=30.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_property_production_matches_brute_series(n, x):
    p = polygamma(n, x)
    r = reference_polygamma(n, x, target=1e-11)
    assert abs(p.value - r.value) <= p.abs_error + r.abs_error


@given(
    n=st.integers(min_value=1, max_value=6),
    x=st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_property_recurrence_residual_within_bound(n, x):
    r = recurrence_residual(n, x)
    assert r.value <= r.abs_error
    if x >= 1.0:
        # moderate magnitudes: the defect is absolutely tiny as well
        assert r.value <= 1e-11


# -- the per-call series with bare tail powers, as a reference ------------------
#
# The series as it was before its per-order constants were tabled and its
# tail was multiplied by y^-n, kept unchanged as a reference: every factorial,
# coefficient and tail power y^-(n+2p) is recomputed on every attempt, and
# pairs whose power underflows are dropped.  The production core must raise
# where it raises, and elsewhere return no looser a bound and an interval
# that meets its interval.

_REF_EPS = 2.0 ** -52
_REF_TINY = sys.float_info.min


def _ref_em_coeff(n: int, i: int) -> float:
    f = Fraction(*psi_mod._BERNOULLI[2 * i]) * Fraction(math.factorial(n + 2 * i - 1), math.factorial(2 * i))
    return float(f)


def _ref_polygamma_tail(n: int, y: float) -> tuple[list[float], float]:
    inv_pow = y ** (-float(n))
    if inv_pow < _REF_TINY:
        raise CapabilityError(f"y^-{n} underflows double precision at y={y}")
    inv_y = 1.0 / y
    base = [
        math.factorial(n - 1) * inv_pow,
        math.factorial(n) * inv_pow * inv_y / 2.0,
    ]
    best_p, best_bound = 1, abs(_ref_em_coeff(n, 1)) * max(y ** (-(n + 2.0)), _REF_TINY)
    for p in range(2, psi_mod._MAX_EM_PAIRS + 1):
        power = y ** (-(n + 2.0 * p))
        if power < _REF_TINY:
            break
        b = abs(_ref_em_coeff(n, p)) * power
        if b < best_bound:
            best_p, best_bound = p, b
    if inv_pow * inv_y < _REF_TINY:
        best_bound += math.factorial(n) * _REF_TINY / 2.0
    terms = base + [
        _ref_em_coeff(n, i) * y ** (-(n + 2.0 * i)) for i in range(1, best_p)
    ]
    return terms, best_bound


def _ref_explicit_polygamma_sum(n: int, x: float, K: int, fact_f: float) -> tuple[float, float]:
    if K == 0:
        return 0.0, 0.0
    s = math.fsum(fact_f * (x + k) ** (-(n + 1.0)) for k in range(K))
    charge = ((n + 1.0) / 2.0 + 3.0) * _REF_EPS * s
    return s, charge


def _ref_polygamma(n: int, x: float) -> EvalResult:
    fact_f = float(math.factorial(n))
    try:
        probe = fact_f * x ** (-(n + 1.0))
    except OverflowError as exc:
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision") from exc
    if not math.isfinite(probe):
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision")

    def attempt(K: int) -> tuple[float, float, float]:
        s_expl, charge_expl = _ref_explicit_polygamma_sum(n, x, K, fact_f)
        tail_terms, remainder = _ref_polygamma_tail(n, x + K)
        tail_abs = math.fsum(abs(t) for t in tail_terms)
        total = math.fsum([s_expl] + tail_terms)
        rounding = (
            charge_expl
            + ((n + 16.0) / 2.0 + 4.0) * _REF_EPS * tail_abs
            + 2.0 * math.ulp(total)
        )
        return total, remainder, rounding

    total, remainder, rounding = attempt(max(0, math.ceil(psi_mod._order_constants(n)[-3] - x)))
    if not (math.isfinite(total) and math.isfinite(remainder + rounding)):
        raise CapabilityError(f"|psi^({n})({x})| overflows double precision")
    sign = 1.0 if n % 2 == 1 else -1.0
    return EvalResult(sign * total, remainder + rounding)


def test_polygamma_no_looser_than_per_call_series():
    rng = random.Random(2409)
    cases = [
        (29, 1.7782794100389e10),  # the remainder sits at the subnormal floor
        (61, 421413.5942223906),  # y^-61 underflows
        (1, 1e200),  # underflowed half-sample term
        (8, 0.01),  # magnitude ~2e22
    ]
    for _ in range(2400):
        n = rng.randint(1, 120)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(1e12)))
        cases.append((n, x))
    outcomes = Counter()
    for n, x in cases:
        try:
            ref = _ref_polygamma(n, x)
        except CapabilityError as exc:
            with pytest.raises(CapabilityError, match=re.escape(str(exc))):
                polygamma(n, x)
            outcomes["CapabilityError"] += 1
            continue
        r = polygamma(n, x)
        assert r.abs_error <= ref.abs_error * (1.0 + 1e-14), (n, x)
        assert abs(r.value - ref.value) <= r.abs_error + ref.abs_error, (n, x)
        outcomes["K = 0" if x >= psi_mod._order_constants(n)[-3] else "K > 0"] += 1
    assert outcomes["K = 0"] > 100 and outcomes["K > 0"] > 100
    assert outcomes["CapabilityError"] > 100


# The digamma series as it was while it had a route of its own, summing 32
# terms around -gamma and searching for the Euler-Maclaurin pair count with
# the smallest remainder bound, kept unchanged as an independent reference:
# the production series, polygamma's n = 0 case, must refuse where it
# refuses and elsewhere return an interval that meets its interval.


def _ref_digamma_tail(x: float, K: int) -> tuple[list[float], float]:
    a, b = K + 1.0, K + x
    integral = math.log1p((x - 1.0) / a)
    terms = [integral, (1.0 / a - 1.0 / b) / 2.0]
    inner = min(a, b)
    bernoulli = [num / den for num, den in psi_mod._BERNOULLI.values()]
    best_p, best_bound = 1, abs(bernoulli[0]) / 2.0 * inner**-2
    for p in range(2, psi_mod._MAX_EM_PAIRS + 1):
        bd = abs(bernoulli[p - 1]) / (2 * p) * inner ** (-2.0 * p)
        if bd < best_bound:
            best_p, best_bound = p, bd
    for i in range(1, best_p):
        c = bernoulli[i - 1] / (2 * i)
        terms.append(c * (a ** (-2.0 * i) - b ** (-2.0 * i)))
    return terms, best_bound


def _ref_digamma(x: float) -> EvalResult:
    K = 32
    s_terms = math.fsum(1.0 / (k + 1.0) - 1.0 / (k + x) for k in range(K))
    gross_uv = math.fsum(1.0 / (k + 1.0) + 1.0 / (k + x) for k in range(K))
    tail_terms, remainder = _ref_digamma_tail(x, K)
    total = math.fsum([s_terms, -EULER_GAMMA] + tail_terms)
    tail_rest = math.fsum(abs(t) for t in tail_terms[1:])
    rounding = (
        0.6 * _REF_EPS * (gross_uv + abs(s_terms))
        + 2.5 * _REF_EPS * abs(tail_terms[0])
        + 20.0 * _REF_EPS * tail_rest
        + math.ulp(EULER_GAMMA)
        + 2.0 * math.ulp(total)
    )
    if not (math.isfinite(total) and math.isfinite(remainder + rounding)):
        raise CapabilityError(f"|psi({x})| overflows double precision")
    return EvalResult(total, remainder + rounding)


def test_digamma_meets_the_minus_gamma_series():
    rng = random.Random(2410)
    root = 1.4616321449683622  # the positive zero of psi
    cases = [5e-324, 1.0, 2.0, 1.0 + 1e-9, 1.0 - 1e-9, root]
    cases += [math.exp(rng.uniform(math.log(1e-300), math.log(1e300))) for _ in range(3000)]
    outcomes = Counter()
    for x in cases:
        try:
            ref = _ref_digamma(x)
        except CapabilityError as exc:
            with pytest.raises(CapabilityError, match=re.escape(str(exc))):
                digamma(x)
            outcomes["CapabilityError"] += 1
            continue
        d = digamma(x)
        assert abs(d.value - ref.value) <= d.abs_error + ref.abs_error, x
        outcomes["K = 0" if x >= 24.0 else "K > 0"] += 1
    assert outcomes["CapabilityError"] == 1
    assert outcomes["K = 0"] > 1000 and outcomes["K > 0"] > 1000
