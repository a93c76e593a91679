"""Two-sided digamma/polygamma bounds with strict certified margins."""

from __future__ import annotations

import math

import pytest

from polycm import (
    CapabilityError,
    DomainError,
    bounds_suite,
    log_grid,
    polygamma_bounds_check,
    psi_log_bounds_check,
)

GAMMA_40 = 0.5772156649015328606065120900824024310422


def test_digamma_log_bounds_at_one():
    r = psi_log_bounds_check(1.0)
    assert r.k == 0
    assert r.lower == -1.0  # ln 1 - 1/1
    assert r.upper == -0.5  # ln 1 - 1/2
    assert abs(r.middle.value + GAMMA_40) <= r.middle.abs_error + 1e-15
    assert r.passed
    assert r.margins[0].value > 0.4 and r.margins[1].value > 0.07


def test_polygamma_bounds_low_orders():
    r1 = polygamma_bounds_check(1, 1.0)
    assert (r1.lower, r1.upper) == (1.5, 2.0)
    assert r1.passed
    r2 = polygamma_bounds_check(2, 1.0)
    assert (r2.lower, r2.upper) == (2.0, 3.0)
    assert abs(r2.middle.value - 2.404113806319189) <= 1e-12
    assert r2.passed


def test_polygamma_bounds_small_argument():
    r = polygamma_bounds_check(4, 0.5)
    assert r.lower == 3 * 2 / 0.5**4 + 24 / (2 * 0.5**5)
    assert r.upper == 3 * 2 / 0.5**4 + 24 / 0.5**5
    assert r.passed


def test_margins_are_strict():
    for x in (0.07, 1.0, 13.0, 100.0):
        for k in (1, 3, 8):
            r = polygamma_bounds_check(k, x)
            assert r.passed
            for m in r.margins:
                assert m.value > 2.0 * m.abs_error


def test_suite_layout_and_success():
    grid = log_grid(0.05, 100.0, 20)
    rep = bounds_suite(3, grid)
    assert len(rep.results) == 4 * len(grid)
    assert all(r.k == 0 for r in rep.results[: len(grid)])
    assert not rep.failures and not rep.refuted and rep.undecided == ()
    assert rep.min_lower_margin > 0.0 and rep.min_upper_margin > 0.0
    assert math.isfinite(rep.min_lower_margin)


def test_suite_minima_are_certified_lower_bounds():
    # past x ~ 2e6 the k = 0 upper margins fall below their bounds: the
    # minima are min(value - abs_error), negative there though nothing is refuted
    rep = bounds_suite(1, log_grid(1.0, 1e8, 12))
    assert rep.failures and not rep.refuted
    for i, least in enumerate((rep.min_lower_margin, rep.min_upper_margin)):
        assert least == min(r.margins[i].value - r.margins[i].abs_error for r in rep.results)
    assert rep.min_upper_margin < 0.0


def test_suite_row_matches_direct_check():
    rep = bounds_suite(1, [2.0])
    direct = polygamma_bounds_check(1, 2.0)
    row = rep.results[1]
    assert row.k == 1
    assert row.middle == direct.middle
    assert row.margins == direct.margins


def test_bound_past_the_doubles_is_capability():
    # |psi^(100)(x)| is 1.7975e308, within the doubles, but the upper bound
    # rounds past them: exact refuses it, as it refuses every rational
    with pytest.raises(CapabilityError, match="exact rational overflows double precision"):
        polygamma_bounds_check(100, 0.032511200000000004)


def test_validation():
    with pytest.raises(DomainError):
        psi_log_bounds_check(0.0)
    with pytest.raises(DomainError):
        polygamma_bounds_check(0, 1.0)
    with pytest.raises(DomainError):
        polygamma_bounds_check(True, 1.0)
    with pytest.raises(DomainError):
        polygamma_bounds_check(1, -3.0)
    with pytest.raises(DomainError):
        bounds_suite(0, [1.0])
    with pytest.raises(DomainError):
        bounds_suite(1, [])
