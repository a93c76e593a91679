"""Exact bound polynomials, envelopes, witness search, classification rule."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from polycm import (
    CapabilityError,
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
    log_grid,
    p_derived,
    p_printed,
    q_derived,
    q_printed,
)
from polycm import classifier


# -- exact polynomial plumbing ----------------------------------------------


def test_from_pairs_combines_and_drops_zeros():
    p = IntPolynomial.from_pairs([(2, 3), (5, 1), (-2, 3), (1, 0), (-1, 0)])
    assert p.terms == ((5, 1),)
    assert IntPolynomial.from_pairs([]).is_zero()
    with pytest.raises(DomainError):
        IntPolynomial.from_pairs([(1.5, 2)])
    with pytest.raises(DomainError):
        IntPolynomial.from_pairs([(1, -1)])


def test_from_pairs_rejects_bools():
    # bool is an int subclass: (True, 1) would otherwise read as (1, 1)
    for pairs in ([(True, 1), (3, 2)], [(3, True)]):
        with pytest.raises(DomainError, match="must be an integer, got True"):
            IntPolynomial.from_pairs(pairs)


def test_leading_trailing():
    p = IntPolynomial.from_pairs([(3, 5), (-7, 2)])
    assert p.leading() == (3, 5)
    assert p.trailing() == (-7, 2)
    zero = IntPolynomial.from_pairs([])
    with pytest.raises(DomainError, match="no leading term"):
        zero.leading()
    with pytest.raises(DomainError, match="no trailing term"):
        zero.trailing()
    with pytest.raises(DomainError, match="no leading term"):
        leading_term_sign(zero, "infinity")
    with pytest.raises(DomainError, match="no trailing term"):
        leading_term_sign(zero, "zero")


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


def _double_inequality(k: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """(A_k, B_k) with A_k < |psi^(k)(x)| < B_k: (k-1)!/x^k plus k!/x^(k+1),
    halved in A_k."""
    lead = math.factorial(k - 1) / x**k
    second = math.factorial(k) / x ** (k + 1)
    return lead + second / 2, lead + second


def test_derived_bounds_are_the_double_inequality_algebra():
    # f'_{m,2n} = psi^(2n+1) + 2 psi^(m) psi^(m+1), the first term positive
    # and the product negative, so A_(2n+1) - 2 B_m B_(m+1) < f' <
    # B_(2n+1) - 2 A_m A_(m+1).  With d = 2m + 2n + 3, x^d times either side
    # is a polynomial of degree at most 2 max(m, n) + 2: agreeing at more
    # distinct points than that, the two are one polynomial.
    for m in range(1, 9):
        for n in range(1, 9):
            d = 2 * m + 2 * n + 3
            q, p = q_derived(m, n), p_derived(m, n)
            for j in range(1, 2 * max(m, n) + 4):
                x = Fraction(j, 3)
                a_odd, b_odd = _double_inequality(2 * n + 1, x)
                a_m, b_m = _double_inequality(m, x)
                a_m1, b_m1 = _double_inequality(m + 1, x)
                assert sum(c * x**k for c, k in q.terms) == 2 * x**d * (a_odd - 2 * b_m * b_m1)
                assert sum(c * x**k for c, k in p.terms) == 4 * x**d * (b_odd - 2 * a_m * a_m1)


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


def test_bound_audit_derived_and_upper_hold(small_log_grid):
    rep = bound_check(4, 4, small_log_grid)
    assert not rep.refuted and rep.undecided == ()
    assert rep.printed_p_ok
    for e in rep.entries:
        assert e.statuses["q_derived"] == "holds"
        assert e.statuses["p_derived"] == "holds"
        assert e.statuses["p_printed"] == "holds"
    # the printed lower bound undersizes its negative terms and loses to f'
    # at large x; those points surface as findings, never as audit failure
    for f in rep.findings:
        assert "lower bound" in f


def test_bound_audit_reports_printed_q_discrepancy():
    rep = bound_check(1, 1, [2.0])
    assert not rep.refuted and rep.undecided == () and rep.printed_p_ok
    entry = rep.entries[0]
    assert entry.statuses["q_printed"] == "fails"
    assert rep.findings
    # the lower bound evaluates to 16/256 = 0.0625 while f' is negative there
    bound = Fraction(q_printed(1, 1).homogenized(2, 1, 7), 2 * 2**7)
    assert bound == Fraction(1, 16)
    assert entry.f_prime.value < float(bound)
    assert entry.f_prime.certified_sign() == -1
    with pytest.raises(DomainError):
        bound_check(1, 1, [2.0, 1.0])


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3)])
def test_bound_audit_margins_are_the_exact_differences_rounded_once(m, n):
    # f' less each exact bound, rounded once: no second rounding of the bound
    polys = {"q_printed": q_printed(m, n), "q_derived": q_derived(m, n),
             "p_printed": p_printed(m, n), "p_derived": p_derived(m, n)}
    for e in bound_check(m, n, log_grid(0.05, 100.0, 50)).entries:
        x, fp = Fraction(e.x), Fraction(e.f_prime.value)
        for name, poly in polys.items():
            lower = name.startswith("q")
            exact = (sum(c * x**p for c, p in poly.terms)
                     / ((2 if lower else 4) * x ** (2 * m + 2 * n + 3)))
            assert e.bounds[name] == float(exact)
            assert e.margins[name] == float(fp - exact if lower else exact - fp), (name, e.x)


@pytest.mark.parametrize("m, n", [(1, 60), (120, 1), (1, 400000), (400000, 1)])
def test_bound_audit_refuses_past_the_cap_before_it_builds_numerators(m, n, monkeypatch):
    def refuse(*args):
        raise AssertionError("numerators built before the order cap was checked")

    monkeypatch.setattr(classifier, "_bound_numerator", refuse)
    with pytest.raises(CapabilityError) as info:
        bound_check(m, n, [2.0])
    needed = max(m, 2 * n) + 1
    assert str(info.value) == (f"f[{m},{2 * n}] derivative 1 needs polygamma "
                               f"order {needed} beyond the cap 120")


def test_bound_audit_refuses_a_bound_past_the_doubles():
    # f'_{20,60}(x) is 1.79769e308, within the doubles, but both upper bounds
    # round past them: exact refuses them, as it refuses every rational
    with pytest.raises(CapabilityError, match="exact rational overflows double precision"):
        bound_check(20, 30, [0.00023891231376154204])


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
def test_envelope_tracks_f_at_both_ends(m, v):
    idx = FamilyIndex(m, 2 * v)
    for x, end in ((1e3, "infinity"), (1e-3, "zero")):
        env = envelope(idx, x, end)
        val = f_value(idx, x)
        assert env.value != 0.0
        assert abs(val.value / env.value - 1.0) <= 0.05


@pytest.mark.parametrize("m,v", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_envelope_is_its_exact_value_rounded_once(m, v):
    idx = FamilyIndex(m, 2 * v)
    for x in (1e-3, 0.3, 1.0, 7.0, 1e3):
        t = Fraction(x)
        fm1, fm, f2v1, f2v = (math.factorial(i) for i in (m - 1, m, 2 * v - 1, 2 * v))
        for end, exact in (("infinity", fm1**2 / t ** (2 * m) - f2v1 / t ** (2 * v)),
                           ("zero", fm**2 / t ** (2 * m + 2) - f2v / t ** (2 * v + 1))):
            env = envelope(idx, x, end)
            assert env.value == float(exact)
            # within its bound, and the bound is the one rounding's half ulp at most
            assert abs(Fraction(env.value) - exact) <= Fraction(env.abs_error)
            assert env.abs_error <= math.nextafter(0.5 * math.ulp(env.value), math.inf)


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


def test_envelope_overflow_is_capability():
    # the envelope ~ 1/x^6 at x = 1e-100 is past the double range
    with pytest.raises(CapabilityError, match="exact rational overflows double precision"):
        envelope(FamilyIndex(2, 4), 1e-100, "zero")


# -- witness search -------------------------------------------------------------


def test_sign_change_witness_certified():
    w = find_sign_change(2, 2)
    assert w.kind == "sign_change"
    assert 1e-3 <= w.x_positive <= 1e3 and 1e-3 <= w.x_negative <= 1e3
    assert w.positive.value > 10.0 * w.positive.abs_error
    assert w.negative.value < -10.0 * w.negative.abs_error
    assert w.positive.certified_sign(10) == 1 and w.negative.certified_sign(10) == -1


def test_nonmonotonic_witness_certified():
    w = find_nonmonotonic(2, 2)
    assert w.kind == "non_monotonic"
    assert w.positive.certified_sign() == 1
    assert w.negative.certified_sign() == -1


def test_witness_exists_for_every_even_member():
    for m in range(1, 7):
        for v in range(1, 4):
            if (m, v) == (1, 1):
                continue
            sw = find_sign_change(m, 2 * v)
            mw = find_nonmonotonic(m, 2 * v)
            for w in (sw, mw):
                assert w.positive.certified_sign(10) == 1
                assert w.negative.certified_sign(10) == -1


def test_witness_rejected_for_cm_members():
    with pytest.raises(DomainError):
        find_sign_change(1, 2)
    with pytest.raises(DomainError):
        find_sign_change(2, 3)
    with pytest.raises(DomainError):
        find_nonmonotonic(1, 2)


def test_search_params_validation():
    with pytest.raises(DomainError):
        SearchParams(x_min=-1.0)
    with pytest.raises(DomainError):
        SearchParams(x_min=2.0, x_max=1.0)
    with pytest.raises(DomainError, match="x_max"):
        SearchParams(x_max=math.inf)


# the even-n members of the 6x6 matrix, two whose floats overflow near x = 1,
# and members whose witnesses lie outside [1e-3, 1e3]
_WITNESS_MEMBERS = [
    (m, n) for m in range(1, 7) for n in (2, 4, 6) if (m, n) != (1, 2)
] + [(40, 2), (1, 120), (6, 12), (6, 14), (10, 24), (7, 14), (15, 30)]


def _f_exact(m, n, order, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if order == 0:
            return mpmath.psi(m, x) ** 2 + mpmath.psi(n, x)
        return mpmath.psi(n + 1, x) + 2 * mpmath.psi(m, x) * mpmath.psi(m + 1, x)


@pytest.mark.parametrize("m, n", _WITNESS_MEMBERS)
def test_witnesses_match_mpmath(m, n):
    mpmath = pytest.importorskip("mpmath")
    for order, search in ((0, find_sign_change), (1, find_nonmonotonic)):
        w = search(m, n)
        for x, ev, sign in ((w.x_positive, w.positive, 1), (w.x_negative, w.negative, -1)):
            assert ev.certified_sign(10.0) == sign
            truth = _f_exact(m, n, order, x)
            assert sign * truth > 0
            with mpmath.workdps(60):
                assert abs(mpmath.mpf(ev.value) - truth) <= ev.abs_error


@pytest.mark.parametrize("search", [SearchParams(), SearchParams(7e-4, 1.4e3), SearchParams(1.4e-3, 7e2)])
def test_witness_points_are_powers_of_two_in_the_window(search):
    for m, n in _WITNESS_MEMBERS[:17]:
        for w in (find_sign_change(m, n, search), find_nonmonotonic(m, n, search)):
            for x in (w.x_positive, w.x_negative):
                assert search.x_min <= x <= search.x_max
                mant, _ = math.frexp(x)
                assert mant == 0.5


def test_witness_probes_nearest_powers_first():
    assert list(classifier._exponents(SearchParams(0.3, 5.0))) == [0, 1, -1, 2]
    assert list(classifier._exponents(SearchParams(0.25, 0.5))) == [-1, -2]
    assert list(classifier._exponents(SearchParams(1.1, 1.9))) == []


def test_default_window_classifies_every_even_member_to_15():
    # every witness exponent here has |e| <= 28; (6,12) has one at 2^-10,
    # (6,14) and (10,24) at 2^10, both outside [1e-3, 1e3]
    members = [(m, 2 * v) for m in range(1, 16) for v in range(1, 16) if (m, v) != (1, 1)]
    assert len(members) == 224
    for m, n in members:
        assert classify(m, n).verdict == "sign_changing_nonmonotonic"


def test_default_window_fails_fast_past_the_double_range():
    # (16,32)'s sign-change brackets leave the doubles before a positive
    # point certifies; the default window bounds the probes that cost
    start = time.process_time()
    with pytest.raises(CapabilityError, match="outside the double range"):
        find_sign_change(16, 32)
    assert time.process_time() - start < 0.1


def test_window_without_witness_raises():
    # a window that runs out refutes nothing: it is a capability limit that
    # names the skipped probes.  No power of two lies in (1.1, 1.9)
    with pytest.raises(CapabilityError, match="0 certified positive, 0 certified negative, "
                                              "0 outside the double range"):
        find_sign_change(2, 2, SearchParams(1.1, 1.9))
    # classify lets the search's own error through
    with pytest.raises(CapabilityError, match="0 certified positive, 0 certified negative"):
        classify(2, 2, search=SearchParams(1.1, 1.9))
    # f[2,2] is positive below its sign change near 2.4, so this window
    # holds no negative point
    with pytest.raises(CapabilityError, match="0 certified negative, 0 outside"):
        find_sign_change(2, 2, SearchParams(1e-3, 1.5))


def test_probes_past_the_double_range_are_capability_errors():
    # [psi^(100)(x)]^2 > (100!)^2 ~ 9e315 for x <= 1: every probe overflows
    with pytest.raises(CapabilityError, match="10 outside the double range"):
        find_sign_change(100, 4, SearchParams(1e-3, 1.5))
    with pytest.raises(CapabilityError):
        classify(100, 4, search=SearchParams(1e-3, 1.5))
    # the default window also reaches points where f[100,4] fits a double
    w = find_sign_change(100, 4)
    assert w.x_positive > 1.0 and w.x_negative > w.x_positive


# -- classification --------------------------------------------------------------


def test_expected_verdict_rule():
    assert expected_verdict(1, 2) == "CM_nontrivial"
    assert expected_verdict(4, 7) == "CM_trivial"
    assert expected_verdict(2, 2) == "sign_changing_nonmonotonic"
    assert expected_verdict(1, 4) == "sign_changing_nonmonotonic"


def test_classify_attaches_consistent_evidence():
    nontrivial = classify(1, 2)
    assert nontrivial.verdict == "CM_nontrivial"
    assert nontrivial.cm_report is not None
    assert nontrivial.cm_report.verdict == "consistent_with_CM"
    assert nontrivial.sign_witness is None

    trivial = classify(3, 3)
    assert trivial.verdict == "CM_trivial"
    assert trivial.cm_report is not None

    changing = classify(2, 2)
    assert changing.verdict == "sign_changing_nonmonotonic"
    assert changing.cm_report is None
    assert changing.sign_witness is not None
    assert changing.monotonicity_witness is not None


def test_classify_validation():
    with pytest.raises(DomainError):
        classify(0, 1)
    with pytest.raises(DomainError):
        classify(1, True)
