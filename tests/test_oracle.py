"""Bound soundness: every claimed abs_error covers the truth from mpmath.

Each test draws points with Hypothesis, evaluates one public evaluator and
asserts |value - truth| <= abs_error with the truth from mpmath at 60
digits, compared in mpmath so the check adds no rounding of its own.  A
CapabilityError makes no claim and passes.

The draws cover x log-uniform on [1e-3, 1e6], integers +-1e-9, the root of
digamma, t log-uniform on [1e-300, 1e5], and the points 2^-10, 0.05 and 1
with their neighbouring doubles (tanh_kernel switches to its series below
0.05, omega_plus_one below 1).  The inequality margins are held to mpmath
at 50 digits, at k = 0 over x log-uniform on [1e-300, 1e300].
"""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from polycm import (
    CapabilityError,
    FamilyIndex,
    digamma,
    f_derivative,
    h,
    kappa,
    log_grid,
    omega,
    omega_plus_one,
    polygamma,
    polygamma_bounds_check,
    psi_log_bounds_check,
    tanh_kernel,
)
from polycm.kernels import reciprocal_expm1
from reference import reference_digamma, reference_polygamma

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DIGAMMA_ROOT = 1.4616321449683623
SWITCH_POINTS = tuple(
    p for c in (2.0**-10, 0.05, 1.0) for p in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))
)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


XS = st.one_of(
    _log_uniform(1e-3, 1e6),
    st.builds(lambda k, d: k + d, st.integers(1, 1000), st.sampled_from((-1e-9, 1e-9))),
    st.just(DIGAMMA_ROOT),
)
TS = st.one_of(_log_uniform(1e-300, 1e5), st.sampled_from(SWITCH_POINTS))


def assert_covers(evaluate, truth) -> None:
    """evaluate() is within its abs_error of truth(), unless it declines."""
    try:
        r = evaluate()
    except CapabilityError:
        return
    with mpmath.workdps(60):
        assert abs(mpf(r.value) - truth()) <= mpf(r.abs_error), r


@given(x=XS)
@example(x=DIGAMMA_ROOT)
@example(x=1.0)
@example(x=math.nextafter(24.0, 0.0))  # the last shift, K = 1
@example(x=24.0)  # no shift: the tail alone
@example(x=5.56268464626801e-309)  # the smallest x at which 1/x fits a double
@example(x=1e300)
@settings(max_examples=60, deadline=None)
def test_digamma(x):
    assert_covers(lambda: digamma(x), lambda: mpmath.digamma(mpf(x)))


@given(n=st.integers(1, 120), x=XS)
@example(n=64, x=3e4)
@example(n=120, x=200.0)
@example(n=67, x=22328.889092033143)  # error/bound 0.013; 0.99999982 while pairs were dropped
@example(n=89, x=2363.9100807815594)  # y^-(n+4) underflows: was 1.17e-4 off
@example(n=82, x=5623.413251903491)  # y^-(n+1) underflows: bound was 425 |value|
@example(n=1, x=DIGAMMA_ROOT)
# the six points where a bound without its rounding charges misses most
# (1.09-4.89 of itself); the shipped bound uses 0.018-0.23 of itself there
@example(n=44, x=31.170711333432163)
@example(n=116, x=272.7196508856525)
@example(n=49, x=15.717066112523176)
@example(n=18, x=30.560328767010066)
@example(n=30, x=30.246020141160347)
@example(n=29, x=30.246020141160347)
@settings(max_examples=120, deadline=None)
def test_polygamma(n, x):
    assert_covers(lambda: polygamma(n, x), lambda: mpmath.psi(n, mpf(x)))


# k = 0 over nearly the whole double range, k = 1..8 where the CLI checks them,
# and two high orders where their margins are smallest beside |psi^(k)|
INEQUALITY_DRAWS = st.one_of(
    st.tuples(st.just(0), _log_uniform(1e-300, 1e300)),
    st.tuples(st.integers(1, 8), _log_uniform(1e-3, 1e6)),
    st.tuples(st.sampled_from((60, 120)), _log_uniform(0.5, 100.0)),
)


@given(kx=INEQUALITY_DRAWS)
@example(kx=(0, 1.0))
@example(kx=(0, DIGAMMA_ROOT))
@example(kx=(0, math.nextafter(24.0, 0.0)))  # the last shift, K = 1
@example(kx=(0, 24.0))  # no shift: the tail alone
@example(kx=(0, 1e8))  # past the wall: the upper margin is below its bound
@example(kx=(89, 2000.0))
@settings(max_examples=200, deadline=None)
def test_inequality_margins(kx):
    # each margin of the double inequality is within its abs_error of the
    # truth at 50 digits; a CapabilityError is rejected, and Hypothesis
    # counts the rejections and fails the test if they crowd out the draws
    k, x = kx
    try:
        r = polygamma_bounds_check(k, x) if k else psi_log_bounds_check(x)
    except CapabilityError:
        reject()
    with mpmath.workdps(50):
        X = mpf(x)
        if k:
            mid = abs(mpmath.psi(k, X))
            head, step = math.factorial(k - 1) / X**k, math.factorial(k) / X ** (k + 1)
            lower, upper = head + step / 2, head + step
        else:
            mid = mpmath.digamma(X)
            lower, upper = mpmath.log(X) - 1 / X, mpmath.log(X) - 1 / (2 * X)
        for margin, truth in zip(r.margins, (mid - lower, upper - mid)):
            assert abs(mpf(margin.value) - truth) <= mpf(margin.abs_error), (k, x, margin)


def test_polygamma_keeps_its_digits_down_to_the_underflow_edge():
    # Where y^-(n+16) is subnormal (as it is wherever y^-(n+1) is) the bare
    # powers of the tail's pairs and remainder would underflow, but the value
    # is normal and must keep relative 1e-13.  Orders 1-120 on the log grid,
    # plus orders up to 8 out to x = 1e38.
    points = [(n, x) for n in range(1, 121) for x in log_grid(1e-3, 1e6, 61)]
    points += [(n, x) for n in range(1, 9) for x in log_grid(1e3, 1e38, 36)]
    checked = 0
    for n, x in points:
        y = x + max(0, math.ceil(24.0 + 0.55 * n - x))
        if y ** -(n + 16.0) >= sys.float_info.min:
            continue
        try:
            r = polygamma(n, x)
        except CapabilityError:
            continue
        assert r.abs_error <= 1e-13 * abs(r.value), (n, x)
        with mpmath.workdps(60):
            assert abs(mpf(r.value) - mpmath.psi(n, mpf(x))) <= mpf(r.abs_error), (n, x)
        checked += 1
    assert checked > 500


@given(
    mn=st.sampled_from(((1, 2), (2, 2), (1, 3), (3, 4))),
    order=st.integers(0, 4),
    x=XS,
)
@settings(max_examples=60, deadline=None)
def test_f_derivative(mn, order, x):
    m, n = mn

    def truth():
        X = mpf(x)
        return mpmath.psi(n + order, X) + sum(
            math.comb(order, j) * mpmath.psi(m + j, X) * mpmath.psi(m + order - j, X)
            for j in range(order + 1)
        )

    assert_covers(lambda: f_derivative(FamilyIndex(m, n), order, x), truth)


def _e(t):
    return 1 / mpmath.expm1(mpf(t))


def _omega(t):
    T = mpf(t)
    return -2 * T * mpmath.exp(-T) / -mpmath.expm1(-2 * T)


def _near_one(truth):
    """truth(t) for a closed form whose leading 1 cancels down to ~t^2:
    evaluated with enough extra digits that 60 correct ones remain."""
    def evaluate(t):
        with mpmath.extradps(2 * max(0, -math.floor(math.log10(t))) + 10):
            return truth(t)
    return evaluate


KERNELS = {
    "reciprocal_expm1": (reciprocal_expm1, _e),
    "kappa": (kappa, lambda t: 1 + _e(t)),
    "tanh_kernel": (tanh_kernel,
                    _near_one(lambda t: (mpf(t) / 2) / mpmath.tanh(mpf(t) / 2) - 1)),
    "omega": (omega, _omega),
    "omega_plus_one": (omega_plus_one, _near_one(lambda t: 1 + _omega(t))),
}
KERNELS.update({
    f"h[{k}]": (lambda t, k=k: h(k, t), lambda t, k=k: (_e(t) + mpf(1) / 2) / mpf(t) ** k)
    for k in range(-3, 3)
})


@given(name=st.sampled_from(sorted(KERNELS)), t=TS)
@example(name="omega_plus_one", t=1e3)  # omega(t) underflows to -0.0
@example(name="reciprocal_expm1", t=1e-300)  # E ~ 1/t near the top of the range
@example(name="reciprocal_expm1", t=708.0)  # e^-t is still normal
@example(name="reciprocal_expm1", t=745.0)  # e^-t is among the smallest subnormals
@example(name="reciprocal_expm1", t=760.0)  # e^-t underflows to 0
@example(name="reciprocal_expm1", t=2.075456435593729e-15)  # 1.42 ulp off
@example(name="reciprocal_expm1", t=0.4167015899288179)  # 1.85 ulp off
@settings(max_examples=200, deadline=None)
def test_kernels(name, t):
    evaluate, truth = KERNELS[name]
    assert_covers(lambda: evaluate(t), lambda: truth(t))


def test_omega_plus_one_keeps_its_digits():
    # omega + 1 ~ t^2/6 near 0: the series below t = 1 and omega(t) + 1
    # above it both stay within 1e-14 relative of the truth
    truth = KERNELS["omega_plus_one"][1]
    for t in SWITCH_POINTS[-3:] + (1e-100, 1e-12, 1e-8, 1e-7, 1e-6, 0.2, 0.5, 0.9, 1.5, 5.0):
        with mpmath.workdps(60):
            assert abs(mpf(omega_plus_one(t).value) / truth(t) - 1) <= mpf(1e-14), t


def test_reciprocal_expm1_at_its_ends():
    # the ends of (0, inf) where exp and expm1 leave the middle of the
    # double range: tiny t, where E ~ 1/t, and t past 700, where e^-t
    # turns subnormal and then 0
    rng = random.Random(20091)
    lo, hi = math.log(1e-300), math.log(2.0**-10)
    ts = [math.exp(rng.uniform(lo, hi)) for _ in range(1000)]
    ts += [rng.uniform(700.0, 760.0) for _ in range(1000)]
    for t in ts:
        assert_covers(lambda: reciprocal_expm1(t), lambda: _e(t))


@given(n=st.integers(0, 64), x=XS)
@example(n=0, x=DIGAMMA_ROOT)
@example(n=57, x=math.exp(13.0))  # (x+k)^-58 is subnormal: the oracle must decline
@example(n=6, x=1e3)  # the tail bracket carries nearly all of the value
@settings(max_examples=30, deadline=None)
def test_reference_series(n, x):
    # 1e-6 and the targets the evaluator tests rely on
    for target in (1e-6, 1e-11, 1e-12):
        if n == 0:
            assert_covers(lambda: reference_digamma(x, target), lambda: mpmath.digamma(mpf(x)))
        else:
            assert_covers(lambda: reference_polygamma(n, x, target), lambda: mpmath.psi(n, mpf(x)))
