"""The exact layer: brackets of |psi^(k)| and the one rounding of an exact
rational into an EvalResult, checked against Fraction arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycm import EvalResult, polygamma
from polycm.exact import enclose, minus, minus_rational, psi_bracket, times


def _pair(r: Fraction) -> tuple[int, int]:
    return r.numerator, r.denominator


def _ulp(r: Fraction) -> Fraction:
    return Fraction(math.ulp(float(r)))


# a rational near a double, a few of that double's ulps off it: any
# denominator, or a power of two that puts it exactly half an ulp off
@st.composite
def near_doubles(draw) -> Fraction:
    d = Fraction(draw(st.floats(-1e30, 1e30, allow_nan=False)))
    if draw(st.booleans()):
        return d + _ulp(d) / 2
    return d + draw(st.fractions(-3, 3, max_denominator=10**6)) * _ulp(d)


@st.composite
def brackets(draw) -> tuple[Fraction, Fraction]:
    lower = draw(near_doubles())
    return lower, lower + draw(st.fractions(0, 4, max_denominator=10**6)) * _ulp(lower)


# an absolute error of zero, or an ulp of the difference scaled down by up
# to 2^79: past 2^53 adding half an ulp to it rounds down
@st.composite
def differences(draw) -> tuple[EvalResult, int, int]:
    v = draw(st.floats(-1e30, 1e30, allow_nan=False))
    diff = draw(near_doubles())
    scale = draw(st.integers(0, 80))
    error = 0.0 if scale == 80 else math.ldexp(math.ulp(float(diff)), -scale)
    p, q = _pair(Fraction(v) - diff)
    return EvalResult(v, error), p, q


@given(brackets())
@example((Fraction(0), Fraction(3, 5)))  # the half-width 3/5 rounds down
@settings(max_examples=300, deadline=None)
def test_enclose_covers_its_bracket_with_one_rounding(bracket):
    lower, upper = bracket
    r = enclose(_pair(lower), _pair(upper))
    value, error = Fraction(r.value), Fraction(r.abs_error)
    assert r.value == float((lower + upper) / 2)
    assert value - error <= lower and upper <= value + error
    assert r.abs_error <= math.nextafter(float(max(upper - value, value - lower)), math.inf)


@given(differences())
# 1 - (-2 - 2^-52) = 3 + 2^-52 is a tie that rounds to 3, half an ulp off;
# 2^-120 + 2^-52 rounds down to 2^-52 without the step up
@example((EvalResult(1.0, 2.0**-120), -(2**53 + 1), 2**52))
@settings(max_examples=300, deadline=None)
def test_minus_rational_rounds_once_within_its_bound(case):
    r, p, q = case
    exact = Fraction(r.value) - Fraction(p, q)
    d = minus_rational(r, p, q)
    assert d.value == float(exact)
    # every t within r.abs_error of r.value has t - p/q within d.abs_error of d.value
    assert abs(exact - Fraction(d.value)) + Fraction(r.abs_error) <= Fraction(d.abs_error)


def test_minus_rational_bound_is_at_most_one_step_above_half_an_ulp():
    d = minus_rational(EvalResult(1.0, 2.0**-60), 1, 3)
    assert d.value == 2 / 3
    assert d.abs_error == math.nextafter(2.0**-60 + 0.5 * math.ulp(2 / 3), math.inf)


def test_minus_rational_and_enclose_refuse_values_past_the_doubles():
    with pytest.raises(OverflowError):
        minus_rational(EvalResult(1.0, 0.0), -(10**400), 1)
    with pytest.raises(OverflowError):
        enclose((10**400, 1), (10**400, 1))


def test_minus_and_times_are_exact():
    a, b = Fraction(3, 7), Fraction(-5, 11)
    assert Fraction(*minus(_pair(a), _pair(b))) == a - b
    assert Fraction(*times(6, _pair(a), _pair(b))) == 6 * a * b


@pytest.mark.parametrize("k", [1, 2, 5, 12])
@pytest.mark.parametrize("x", [Fraction(1, 8), Fraction(1), Fraction(3, 2), Fraction(64)])
def test_psi_bracket_holds_psi(k, x):
    lower, upper = psi_bracket(k, x.numerator, x.denominator)
    psi = abs(polygamma(k, float(x)))
    value, error = Fraction(psi.value), Fraction(psi.abs_error)
    assert Fraction(*lower) < value + error and value - error < Fraction(*upper)
