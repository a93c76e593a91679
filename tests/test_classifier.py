"""Exact bound polynomials, envelopes, witness search, classification rule."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycm import (
    DomainError,
    FamilyIndex,
    IntPolynomial,
    SearchParams,
    binom_quantity,
    bound_check,
    classify,
    discriminant_mn,
    envelope,
    expected_verdict,
    f_value,
    find_nonmonotonic,
    find_sign_change,
    leading_term_sign,
    p_derived,
    p_printed,
    q_derived,
    q_printed,
)


# -- exact polynomial plumbing ----------------------------------------------


def test_from_pairs_combines_and_drops_zeros():
    p = IntPolynomial.from_pairs([(2, 3), (5, 1), (-2, 3), (1, 0), (-1, 0)])
    assert p.terms == ((5, 1),)
    assert IntPolynomial.from_pairs([]).is_zero()
    with pytest.raises(DomainError):
        IntPolynomial.from_pairs([(1.5, 2)])
    with pytest.raises(DomainError):
        IntPolynomial.from_pairs([(1, -1)])


def test_leading_trailing():
    p = IntPolynomial.from_pairs([(3, 5), (-7, 2)])
    assert p.leading() == (3, 5)
    assert p.trailing() == (-7, 2)
    with pytest.raises(DomainError):
        IntPolynomial.from_pairs([]).leading()


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=0, max_value=8),
        ),
        max_size=6,
    ),
    x=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_property_float_eval_within_one_rounding(pairs, x):
    p = IntPolynomial.from_pairs(pairs)
    r = p.evaluate(x)
    exact = p.evaluate_exact(Fraction(x))
    assert abs(Fraction(r.value) - exact) <= Fraction(r.abs_error)


# -- bound polynomial families ----------------------------------------------


def test_polynomials_at_1_1():
    assert q_printed(1, 1).terms == ((2, 4), (-4, 2))
    assert p_printed(1, 1).terms == ((4, 4), (18, 3), (-2, 2))
    assert q_derived(1, 1).terms == ((-6, 3), (-8, 2))
    assert p_derived(1, 1).terms == ((12, 3), (-4, 2))


def test_q_printed_1_2_coefficients():
    assert q_printed(1, 2).terms == ((-2, 6), (-6, 5), (44, 4), (120, 3))


def _positive_part(m: int, n: int, s_high: int, s_low: int) -> IntPolynomial:
    two_n = math.factorial(2 * n)
    two_n1 = math.factorial(2 * n + 1)
    return IntPolynomial.from_pairs(
        [(s_high * two_n, 2 * m + 2), (s_low * two_n1, 2 * m + 1)]
    )


def _combine(a: IntPolynomial, a_scale: int, b: IntPolynomial, b_scale: int):
    pairs = [(a_scale * c, p) for c, p in a.terms]
    pairs += [(b_scale * c, p) for c, p in b.terms]
    return IntPolynomial.from_pairs(pairs)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_derived_bounds_double_only_the_negative_terms(m, n):
    # both families share their positive terms; the derived variants carry
    # exactly twice the printed negative terms, so derived = 2*printed - pos
    q_pos = _positive_part(m, n, 2, 1)
    p_pos = _positive_part(m, n, 4, 4)
    assert q_derived(m, n) == _combine(q_printed(m, n), 2, q_pos, -1)
    assert p_derived(m, n) == _combine(p_printed(m, n), 2, p_pos, -1)


def test_leading_term_signs():
    assert leading_term_sign(q_printed(2, 1), "infinity") == 1
    assert leading_term_sign(q_printed(2, 1), "zero") == -1
    assert leading_term_sign(p_printed(2, 1), "zero") == -1
    assert leading_term_sign(q_printed(1, 2), "zero") == 1
    with pytest.raises(DomainError):
        leading_term_sign(q_printed(1, 1), "middle")


def test_polynomial_family_validation():
    for fn in (q_printed, p_printed, q_derived, p_derived):
        with pytest.raises(DomainError):
            fn(0, 1)
        with pytest.raises(DomainError):
            fn(1, 0)


# -- bound audit --------------------------------------------------------------


def test_bound_audit_derived_and_upper_hold(cfg, small_log_grid):
    rep = bound_check(4, 4, small_log_grid, cfg)
    assert rep.derived_ok
    assert rep.printed_p_ok
    for e in rep.entries:
        assert e.statuses["q_derived"] == "holds"
        assert e.statuses["p_derived"] == "holds"
        assert e.statuses["p_printed"] == "holds"
    # the printed lower bound undersizes its negative terms and loses to f'
    # at large x; those points surface as findings, never as audit failure
    for f in rep.findings:
        assert "lower bound" in f


def test_bound_audit_reports_printed_q_discrepancy(cfg):
    rep = bound_check(1, 1, [2.0], cfg)
    assert rep.derived_ok and rep.printed_p_ok
    entry = rep.entries[0]
    assert entry.statuses["q_printed"] == "fails"
    assert rep.findings
    # the lower bound evaluates to 16/256 = 0.0625 while f' is negative there
    bound = q_printed(1, 1).evaluate_exact(Fraction(2)) / (2 * Fraction(2) ** 7)
    assert bound == Fraction(1, 16)
    assert entry.f_prime.value < float(bound)
    assert entry.f_prime.certainly_negative()
    with pytest.raises(DomainError):
        bound_check(1, 1, [2.0, 1.0], cfg)


# -- combinatorial quantities -------------------------------------------------


def test_binom_quantity_examples():
    assert binom_quantity(1, 1) == (1, "equals_one")
    assert binom_quantity(1, 2) == (0, "equals_zero")
    assert binom_quantity(2, 3) == (2, "at_least_two")


def test_binom_quantity_partition_exhaustive():
    seen_one = []
    for i in range(1, 13):
        for m in range(1, 13):
            value, label = binom_quantity(i, m)
            assert value == i * math.comb(2 * i - 1, m)
            expected = (
                "equals_one"
                if value == 1
                else ("equals_zero" if value == 0 else "at_least_two")
            )
            assert label == expected
            if label == "equals_one":
                seen_one.append((i, m))
    assert seen_one == [(1, 1)]


def test_discriminants():
    assert [discriminant_mn(m) for m in (1, 2, 3)] == [0, -5, -29]
    with pytest.raises(DomainError):
        discriminant_mn(0)


# -- envelopes -----------------------------------------------------------------


@pytest.mark.parametrize("m,v", [(2, 1), (1, 2), (3, 1), (2, 2)])
def test_envelope_tracks_f_at_both_ends(cfg, m, v):
    idx = FamilyIndex(m, 2 * v)
    for x, end in ((1e3, "infinity"), (1e-3, "zero")):
        env = envelope(idx, x, end)
        val = f_value(idx, x, cfg)
        assert env.value != 0.0
        assert abs(val.value / env.value - 1.0) <= 0.05


def test_envelope_degenerate_and_validation():
    # at m = v = 1 the infinity-end leading terms cancel exactly
    assert envelope(FamilyIndex(1, 2), 10.0, "infinity").value == 0.0
    assert envelope(FamilyIndex(1, 2), 10.0, "zero").value != 0.0
    with pytest.raises(DomainError):
        envelope(FamilyIndex(1, 3), 1.0, "zero")
    with pytest.raises(DomainError):
        envelope(FamilyIndex(1, 2), 1.0, "nowhere")
    with pytest.raises(DomainError):
        envelope(FamilyIndex(1, 2), -1.0, "zero")


# -- witness search -------------------------------------------------------------


def test_sign_change_witness_certified(cfg):
    w = find_sign_change(2, 2, cfg=cfg)
    assert w.kind == "sign_change"
    assert 1e-3 <= w.x_positive <= 1e3 and 1e-3 <= w.x_negative <= 1e3
    assert w.positive.value > 10.0 * w.positive.abs_error
    assert w.negative.value < -10.0 * w.negative.abs_error
    assert w.margin_positive > 0.0 and w.margin_negative > 0.0


def test_nonmonotonic_witness_certified(cfg):
    w = find_nonmonotonic(2, 2, cfg=cfg)
    assert w.kind == "non_monotonic"
    assert w.positive.certainly_positive()
    assert w.negative.certainly_negative()


def test_witness_exists_for_every_even_member(cfg):
    for m in range(1, 7):
        for v in range(1, 4):
            if (m, v) == (1, 1):
                continue
            sw = find_sign_change(m, 2 * v, cfg=cfg)
            mw = find_nonmonotonic(m, 2 * v, cfg=cfg)
            assert sw.margin_positive > 0.0 and sw.margin_negative > 0.0
            assert mw.margin_positive > 0.0 and mw.margin_negative > 0.0


def test_witness_rejected_for_cm_members(cfg):
    with pytest.raises(DomainError):
        find_sign_change(1, 2, cfg=cfg)
    with pytest.raises(DomainError):
        find_sign_change(2, 3, cfg=cfg)
    with pytest.raises(DomainError):
        find_nonmonotonic(1, 2, cfg=cfg)


def test_search_params_validation():
    with pytest.raises(DomainError):
        SearchParams(x_min=-1.0)
    with pytest.raises(DomainError):
        SearchParams(x_min=2.0, x_max=1.0)
    with pytest.raises(DomainError, match="x_max"):
        SearchParams(x_max=math.inf)


# -- classification --------------------------------------------------------------


def test_expected_verdict_rule():
    assert expected_verdict(1, 2) == "CM_nontrivial"
    assert expected_verdict(4, 7) == "CM_trivial"
    assert expected_verdict(2, 2) == "sign_changing_nonmonotonic"
    assert expected_verdict(1, 4) == "sign_changing_nonmonotonic"


def test_classify_attaches_consistent_evidence(cfg):
    nontrivial = classify(1, 2, cfg)
    assert nontrivial.verdict == "CM_nontrivial"
    assert nontrivial.cm_report is not None
    assert nontrivial.cm_report.verdict == "consistent_with_CM"
    assert nontrivial.sign_witness is None

    trivial = classify(3, 3, cfg)
    assert trivial.verdict == "CM_trivial"
    assert trivial.cm_report is not None

    changing = classify(2, 2, cfg)
    assert changing.verdict == "sign_changing_nonmonotonic"
    assert changing.cm_report is None
    assert changing.sign_witness is not None
    assert changing.monotonicity_witness is not None


def test_classify_validation(cfg):
    with pytest.raises(DomainError):
        classify(0, 1, cfg)
    with pytest.raises(DomainError):
        classify(1, True, cfg)
