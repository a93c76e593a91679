"""Error-tracked arithmetic: propagation soundness against exact rationals."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycm import (
    DomainError,
    EvalResult,
    linear_grid,
    log_grid,
)
from polycm.evaluation import as_result, decide, ulp
from reference import result_sum

finite_values = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
small_errors = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)


def test_ulp_positive_even_at_zero():
    assert ulp(0.0) > 0.0
    assert ulp(-2.0) == math.ulp(2.0)
    assert ulp(1.0) == 2.0**-52


@pytest.mark.parametrize(
    "v", [0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308, math.inf, -math.inf, math.nan]
)
def test_ulp_is_the_positive_ulp_of_the_magnitude(v):
    # the rule ulp stands for: one ulp of |v|, and 5e-324 at zero
    ref = math.ulp(abs(v)) if v != 0.0 else 5e-324
    got = ulp(v)
    assert got == ref or (math.isnan(got) and math.isnan(ref))


def test_invalid_construction_rejected():
    with pytest.raises(DomainError):
        EvalResult(float("nan"), 0.0)
    with pytest.raises(DomainError):
        EvalResult(float("inf"), 0.0)
    with pytest.raises(DomainError):
        EvalResult(1.0, -1e-18)
    with pytest.raises(DomainError):
        EvalResult(1.0, float("nan"))


def test_as_result_wraps_exact_scalars():
    r = as_result(3)
    assert r.value == 3.0 and r.abs_error == 0.0
    assert as_result(r) is r


@given(a=finite_values, b=finite_values, ea=small_errors, eb=small_errors)
@settings(max_examples=60, deadline=None)
def test_add_sub_bounds_cover_true_interval(a, b, ea, eb):
    A, B = EvalResult(a, ea), EvalResult(b, eb)
    s = A + B
    # representation error of the computed value plus the input intervals
    rep = abs(Fraction(s.value) - (Fraction(a) + Fraction(b)))
    assert s.abs_error >= float(rep) + ea + eb - 1e-300
    d = A - B
    rep = abs(Fraction(d.value) - (Fraction(a) - Fraction(b)))
    assert d.abs_error >= float(rep) + ea + eb - 1e-300


@given(a=finite_values, b=finite_values, ea=small_errors, eb=small_errors)
@settings(max_examples=60, deadline=None)
def test_mul_bound_covers_true_interval(a, b, ea, eb):
    A, B = EvalResult(a, ea), EvalResult(b, eb)
    p = A * B
    rep = abs(Fraction(p.value) - Fraction(a) * Fraction(b))
    interval = abs(a) * eb + abs(b) * ea + ea * eb
    assert p.abs_error >= float(rep)
    # first-order interval width, small float slack for the additions above
    assert p.abs_error >= interval * (1.0 - 1e-12)


def test_square_and_neg():
    r = EvalResult(-3.0, 1e-6)
    assert (-r).value == 3.0 and (-r).abs_error == r.abs_error


def test_abs_keeps_the_bound():
    r = abs(EvalResult(-3.0, 1e-6))
    assert r == (3.0, 1e-6)
    assert abs(EvalResult(2.0, 0.0)) == (2.0, 0.0)


def test_reflected_subtraction_from_a_scalar():
    r = 2.0 - EvalResult(0.5, 1e-16)
    assert r == (1.5, 1e-16 + ulp(1.5))


def test_mul_exact_for_integer_scalars():
    r = EvalResult(0.5, 1e-10)
    s = r * 4.0
    assert s.value == 2.0
    assert s.abs_error == 4.0 * 1e-10 + ulp(2.0)


@given(
    vals=st.lists(
        st.tuples(finite_values, small_errors), min_size=1, max_size=12
    )
)
@settings(max_examples=40, deadline=None)
def test_result_sum_matches_exact_rational_sum(vals):
    parts = [EvalResult(v, e) for v, e in vals]
    s = result_sum(parts)
    exact = sum((Fraction(v) for v, _ in vals), Fraction(0))
    rep = abs(Fraction(s.value) - exact)
    budget = sum(e for _, e in vals)
    assert s.abs_error >= float(rep)
    assert s.abs_error >= budget * (1.0 - 1e-12)


def test_sign_certification_thresholds():
    r = EvalResult(1.0, 0.4)
    assert r.certified_sign() == 1
    assert r.certified_sign(factor=3.0) != 1
    assert r.certified_sign() != -1
    assert r.certified_sign(factor=3.0) == 0
    n = EvalResult(-1.0, 0.4)
    assert n.certified_sign() == -1
    z = EvalResult(0.0, 0.0)
    assert z.certified_sign() == 0


@pytest.mark.parametrize("factor", [1.0, 2.0, 10.0])
def test_sign_certification_boundaries(factor):
    # a value exactly at +-factor*abs_error is not certified: both tests are strict
    err = 0.375  # factor * err is exact for every factor here
    assert EvalResult(factor * err, err).certified_sign(factor) == 0
    assert EvalResult(-factor * err, err).certified_sign(factor) == 0
    assert EvalResult(math.nextafter(factor * err, math.inf), err).certified_sign(factor) == 1
    assert EvalResult(math.nextafter(-factor * err, -math.inf), err).certified_sign(factor) == -1
    assert EvalResult(0.0, 0.0).certified_sign(factor) == 0


def test_decide_reads_refutations_and_undecided_points():
    assert decide([]) == (False, ())
    assert decide([(2.0, 1), (1.0, 1)]) == (False, ())
    # a sign of 0 refutes nothing: its point is undecided, each point once,
    # in increasing order
    assert decide([(3.0, 0), (1.0, 1), (2.0, 0), (3.0, 0)]) == (False, (2.0, 3.0))
    # a sign of -1 refutes, and its point is not undecided
    assert decide([(1.0, -1), (2.0, 0), (3.0, 1)]) == (True, (2.0,))
    assert decide(iter([(1.0, -1), (1.0, 1)])) == (True, ())
    # the signs of certified_sign, read as a report reads them
    margins = [(1.0, EvalResult(1.0, 0.1)), (2.0, EvalResult(0.05, 0.1)), (3.0, EvalResult(0.3, 0.1))]
    assert decide((x, r.certified_sign(2.0)) for x, r in margins) == (False, (2.0,))
    assert decide((x, (-r).certified_sign(2.0)) for x, r in margins) == (True, (2.0,))


def test_log_grid_shape():
    g = log_grid(0.01, 100.0, 9)
    assert len(g) == 9
    assert g[0] == 0.01 and g[-1] == 100.0
    assert all(a < b for a, b in zip(g, g[1:]))
    with pytest.raises(DomainError):
        log_grid(-1.0, 10.0, 5)
    with pytest.raises(DomainError):
        log_grid(1.0, 10.0, 1)
    with pytest.raises(DomainError, match="grid end"):
        log_grid(0.01, math.inf, 5)
    with pytest.raises(DomainError, match="grid count"):
        log_grid(0.1, 1.0, 2.5)


def test_linear_grid_shape():
    g = linear_grid(0.0, 1.0, 5)
    assert g == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(DomainError):
        linear_grid(1.0, 1.0, 3)
    with pytest.raises(DomainError, match="grid end"):
        linear_grid(0.0, math.inf, 3)
    with pytest.raises(DomainError, match="grid count"):
        linear_grid(0.0, 1.0, 2.5)
