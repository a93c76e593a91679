"""Laplace-kernel evaluation, monotonicity/limit/range certification.

40-digit reference values computed independently with arbitrary-precision
arithmetic from the closed forms.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycm import (
    CapabilityError,
    DomainError,
    KernelId,
    h,
    kappa,
    kernel_report,
    linear_grid,
    log_grid,
    omega,
    omega_plus_one,
    tanh_kernel,
)
from polycm import kernels
from polycm.evaluation import EvalResult
from polycm.kernels import reciprocal_expm1
from reference import laplace_power_identity

KAPPA_AT_1 = 1.581976706869326424385002005109011558547
H1_AT_1 = 1.081976706869326424385002005109011558547
TANH_AT_2 = 0.313035285499331303636161246930847832912
OMEGA_AT_1 = -0.8509181282393215451338427632871752841817
OMEGA_AT_50 = -1.928749847963917783017342816527012574753e-20

IDENTITY_GRID = log_grid(2.0**-10, 50.0, 64)


def check_close(result, reference, slack=0.0):
    assert abs(result.value - reference) <= result.abs_error + slack


def test_frozen_point_values():
    check_close(kappa(1.0), KAPPA_AT_1, slack=math.ulp(2.0))
    check_close(h(1, 1.0), H1_AT_1, slack=math.ulp(2.0))
    check_close(tanh_kernel(2.0), TANH_AT_2, slack=math.ulp(1.0))
    check_close(omega(1.0), OMEGA_AT_1, slack=math.ulp(1.0))
    w = omega(50.0)
    assert abs(w.value - OMEGA_AT_50) <= w.abs_error + 1e-30


def test_h_at_one_equals_kappa_minus_half():
    a, b = h(1, 1.0), kappa(1.0)
    assert abs(a.value - (b.value - 0.5)) <= a.abs_error + b.abs_error


def test_kappa_asymptotes():
    small = kappa(1e-8)
    assert abs(small.value * 1e-8 - 1.0) <= 1e-6
    # kappa(ln 2) = 1 + 1/(2 - 1) = 2 exactly
    at_ln2 = kappa(math.log(2.0))
    assert abs(at_ln2.value - 2.0) <= at_ln2.abs_error + 1e-12
    large = kappa(50.0)
    assert abs(large.value - 1.0) <= 1e-12


def test_h_asymptotes():
    assert abs(h(-1, 1e-6).value - 1.0) <= 1e-5
    far = h(0, 50.0)
    assert abs(far.value - 0.5) <= 1e-12


def test_h_consistency_across_powers():
    for k in range(-3, 4):
        for t in (0.01, 1.0, 10.0):
            lhs = h(k, t) * t**float(k)
            rhs = reciprocal_expm1(t) + 0.5
            assert abs(lhs.value - rhs.value) <= lhs.abs_error + rhs.abs_error


def test_small_t_series_switch_is_seamless():
    cut = 2.0**-10
    for t in (cut * (1.0 - 1e-9), cut * (1.0 + 1e-9)):
        a = reciprocal_expm1(t)
        assert a.value > 0.0
        # E must agree with 1/(t + t^2/2) to first order on both sides of 2^-10
        approx = 1.0 / t - 0.5
        assert abs(a.value - approx) <= 1e-4 * a.value


def test_tanh_kernel_small_t_quadratic():
    t = 1e-6
    r = tanh_kernel(t)
    expected = t * t / 12.0 - t**4 / 720.0
    assert abs(r.value - expected) <= r.abs_error + 1e-30
    assert r.certified_sign() == 1


def test_identity_tanh_equals_kappa_combination():
    # tanh_kernel(t)/t = kappa(t) - 1/2 - 1/t, two independent routes
    for t in IDENTITY_GRID:
        lhs = tanh_kernel(t).value / t
        rhs = kappa(t).value - 0.5 - 1.0 / t
        assert abs(lhs - rhs) <= 1e-10


def test_omega_range_and_complement():
    for t in log_grid(1e-6, 50.0, 32):
        w = omega(t)
        wp = omega_plus_one(t)
        assert w.certified_sign() == -1
        assert wp.certified_sign() == 1
        assert abs(wp.value - (w.value + 1.0)) <= wp.abs_error + w.abs_error + 1e-16


def test_kernel_id_validation():
    with pytest.raises(DomainError):
        KernelId("nope")
    with pytest.raises(DomainError):
        KernelId("h")
    with pytest.raises(DomainError):
        KernelId("h", True)
    with pytest.raises(DomainError):
        KernelId("omega", 1)
    assert KernelId("h", -2).label() == "h[-2]"
    assert KernelId("kappa").label() == "kappa"


def test_report_omega():
    rep = kernel_report(KernelId("omega"), log_grid(1e-6, 50.0, 64))
    assert rep.monotonicity_verdict == rep.expected_monotonicity == "increasing"
    assert all(c.passed for c in rep.limit_checks)
    by_end = {c.end: c for c in rep.limit_checks}
    assert by_end["zero"].achieved <= 1e-5
    assert by_end["infinity"].achieved <= 1e-5
    assert rep.range_passed
    assert rep.min_range_margin > 0.0


def test_report_omega_approaches_zero_from_below():
    # omega(5) ~ -0.067 is far from 0: the infinity check passes on its
    # outermost step toward 0 from below and its distance -omega(5) > 0
    rep = kernel_report(KernelId("omega"), log_grid(1e-3, 5.0, 16))
    inf_check = {c.end: c for c in rep.limit_checks}["infinity"]
    assert inf_check.achieved == -omega(5.0).value > 1e-5
    assert inf_check.passed


def test_report_omega_range_certified_near_zero():
    # at t <= 1e-8, omega + 1 ~ t^2/6 keeps its digits through its series:
    # the range and the steps are certified there
    rep = kernel_report(KernelId("omega"), log_grid(1e-9, 1e-8, 3))
    assert rep.range_passed
    assert rep.monotonicity_verdict == "increasing"
    assert all(c.passed for c in rep.limit_checks)
    assert rep.undecided == () and rep.diagnostics == ()


def test_report_range_margin_not_cleared(monkeypatch):
    # omega + 1 pinned at 0 within its error: the range is refused, not
    # refuted, and the steps are decided through -omega instead
    monkeypatch.setattr(kernels, "omega_plus_one", lambda t: EvalResult(0.0, 1e-12))
    rep = kernel_report(KernelId("omega"), [1.0, 2.0])
    assert not rep.range_passed
    assert rep.monotonicity_verdict == "increasing"
    assert rep.diagnostics == tuple(
        f"range margin not cleared at t={t}: 0.000e+00 within error 1.000e-12" for t in (1, 2)
    )
    assert rep.undecided == (1.0, 2.0) and not rep.refuted
    zero_check = {c.end: c for c in rep.limit_checks}["zero"]
    assert not zero_check.passed and zero_check.achieved == 0.0


def test_report_names_mixed_directions(monkeypatch):
    def zigzag(t):
        return EvalResult(-0.5 if t == 2.0 else -0.75, 1e-12)

    monkeypatch.setattr(kernels, "omega", zigzag)
    monkeypatch.setattr(kernels, "omega_plus_one", lambda t: zigzag(t) + 1.0)
    rep = kernel_report(KernelId("omega"), [1.0, 2.0, 3.0])
    assert rep.monotonicity_verdict == "none"
    assert "mixed directions: 1 up, 1 down" in rep.diagnostics
    # a step certified against the kernel is a refutation, not undecided
    assert rep.refuted and rep.undecided == ()


def test_report_kappa():
    rep = kernel_report(KernelId("kappa"), log_grid(1e-6, 50.0, 64))
    assert rep.monotonicity_verdict == rep.expected_monotonicity == "decreasing"
    by_end = {c.end: c for c in rep.limit_checks}
    assert by_end["zero"].expected is None and by_end["zero"].passed
    assert by_end["infinity"].passed
    assert rep.range_passed


@pytest.mark.parametrize("kid", [KernelId("kappa"), KernelId("h", 0)])
def test_report_flat_limit_is_certified_through_e(kid):
    # kappa(50) rounds to exactly 1.0 and h(0, 50) to 0.5: their limits
    # pass on E(50), the distance that keeps its digits
    rep = kernel_report(kid, log_grid(1e-6, 50.0, 64))
    inf_check = {c.end: c for c in rep.limit_checks}["infinity"]
    assert inf_check.passed
    assert inf_check.achieved == reciprocal_expm1(50.0).value > 0.0


@pytest.mark.parametrize("kid", [KernelId("h", -1), KernelId("omega")])
def test_report_increasing_down_to_tiny_t(kid):
    # near 0, h(-1, t) and omega(t) sit within an ulp of their limits 1 and
    # -1; tanh_kernel and omega + 1 decide their steps there
    rep = kernel_report(kid, log_grid(1e-12, 50.0, 64))
    assert rep.monotonicity_verdict == "increasing"
    assert rep.range_passed and all(c.passed for c in rep.limit_checks)


def test_report_tanh():
    rep = kernel_report(KernelId("tanh"), log_grid(1e-6, 50.0, 64))
    assert rep.monotonicity_verdict == rep.expected_monotonicity == "increasing"
    by_end = {c.end: c for c in rep.limit_checks}
    assert by_end["zero"].passed and by_end["zero"].achieved <= 1e-5
    assert by_end["infinity"].expected is None and by_end["infinity"].passed
    assert rep.range_passed


@pytest.mark.parametrize(
    "k,direction",
    [(-3, "increasing"), (-2, "increasing"), (-1, "increasing"),
     (0, "decreasing"), (1, "decreasing"), (2, "decreasing")],
)
def test_report_h_directions_and_limits(k, direction):
    rep = kernel_report(KernelId("h", k), log_grid(1e-6, 50.0, 64))
    assert rep.monotonicity_verdict == rep.expected_monotonicity == direction
    assert all(c.passed for c in rep.limit_checks)
    assert rep.range_passed
    if k >= 1:
        # 1/(2t^k) decays slowly: at t = 50 it is still far from 0, and the
        # pass comes from the outermost step toward it
        inf_check = {c.end: c for c in rep.limit_checks}["infinity"]
        assert inf_check.passed and inf_check.achieved > 1e-5


def test_report_refuses_steps_within_the_error():
    # three points a few ulps apart: tanh's increase is far inside the
    # error bound of each step, so the report certifies no direction and
    # says why, without calling the steps mixed
    rep = kernel_report(KernelId("tanh"), linear_grid(1.0, 1.0 + 1e-15, 3))
    assert rep.monotonicity_verdict == "none"
    assert rep.diagnostics
    assert all(d.startswith("inconclusive step") for d in rep.diagnostics)
    assert not any("mixed directions" in d for d in rep.diagnostics)
    assert rep.range_passed
    # tanh(1) is far above its limit 0, but no step toward it is certified
    assert [c.passed for c in rep.limit_checks] == [False, False]
    assert rep.undecided == (1.0, 1.0 + 5e-16, 1.0 + 1e-15)
    assert not rep.refuted


def test_report_grid_validation():
    with pytest.raises(DomainError):
        kernel_report(KernelId("omega"), [1.0])
    with pytest.raises(DomainError):
        kernel_report(KernelId("omega"), [2.0, 1.0])
    with pytest.raises(DomainError):
        kernel_report(KernelId("omega"), [-1.0, 1.0])


def test_laplace_power_identity_residuals():
    assert laplace_power_identity(1.0, 2.0) <= 1e-10
    assert laplace_power_identity(2.0, 1.0) <= 1e-10
    for r in (1.0, 2.0, 5.5):
        for x in (0.5, 1.0, 10.0):
            assert laplace_power_identity(r, x) <= 1e-9
    with pytest.raises(DomainError):
        laplace_power_identity(0.0, 1.0)
    with pytest.raises(DomainError):
        laplace_power_identity(1.0, -2.0)


def test_report_underflowed_range_margin_is_undecided():
    # E(t) and omega(t) underflow to 0 past t ~ 745: a range margin of 0
    # within its error refutes nothing, and its t is left undecided
    for kid in (KernelId("omega"), KernelId("kappa"), KernelId("h", 0)):
        rep = kernel_report(kid, [1.0, 700.0, 1000.0])
        assert rep.undecided == (1000.0,)
        assert not rep.range_passed and not rep.refuted
        # subnormal but nonzero margins still certify
        assert kernel_report(kid, [1.0, 700.0, 740.0]).range_passed


def test_subnormal_argument_is_capability():
    # E(t) ~ 1/t overflows below t ~ 5.6e-309: a capability limit, not a
    # non-finite value handed to EvalResult (a usage error)
    for evaluate in (reciprocal_expm1, kappa, omega, lambda t: h(0, t), lambda t: h(2, t)):
        with pytest.raises(CapabilityError, match="t=1e-310"):
            evaluate(1e-310)
    assert reciprocal_expm1(1e-300).value == 1.0 / 1e-300  # still in range


def test_h_extreme_power_capability():
    with pytest.raises(CapabilityError):
        h(400, 1e-3)
    with pytest.raises(CapabilityError, match="t\\^2 overflows"):
        h(2, 1e300)
    # t^1 is in range but h ~ 1/t^2 is not: a capability limit, not the
    # usage error a non-finite EvalResult would raise
    with pytest.raises(CapabilityError, match=r"h\[1\] overflows at t=1e-300"):
        h(1, 1e-300)


@given(t=st.floats(min_value=1e-5, max_value=60.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_property_kernel_relations(t):
    e = reciprocal_expm1(t)
    assert e.value > 0.0
    kap = kappa(t)
    # 1 + E rounds to exactly 1.0 once E < eps; strict excess lives in E
    assert kap.value >= 1.0
    w = omega(t)
    assert -1.0 < w.value < 0.0
    lhs = tanh_kernel(t)
    rhs = kap * t - 0.5 * t - 1.0
    assert abs(lhs.value - rhs.value) <= lhs.abs_error + rhs.abs_error
