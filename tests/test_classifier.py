"""Exact bound polynomials, envelopes, witness search, classification rule."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from polycm import (
    CapabilityError,
    DomainError,
    EvalResult,
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
from polycm.errors import SearchExhaustedError


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


def test_bound_audit_derived_and_upper_hold(small_log_grid):
    rep = bound_check(4, 4, small_log_grid)
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


def test_bound_audit_reports_printed_q_discrepancy():
    rep = bound_check(1, 1, [2.0])
    assert rep.derived_ok and rep.printed_p_ok
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


def test_sign_change_witness_certified():
    w = find_sign_change(2, 2)
    assert w.kind == "sign_change"
    assert 1e-3 <= w.x_positive <= 1e3 and 1e-3 <= w.x_negative <= 1e3
    assert w.positive.value > 10.0 * w.positive.abs_error
    assert w.negative.value < -10.0 * w.negative.abs_error
    assert w.margin_positive > 0.0 and w.margin_negative > 0.0


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
            assert sw.margin_positive > 0.0 and sw.margin_negative > 0.0
            assert mw.margin_positive > 0.0 and mw.margin_negative > 0.0


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


def _full_scan_search(probe, kind, label, search):
    """The witness search as it was before the scan stopped early: every
    coarse point is probed before the first certified bracket is taken."""
    xs = log_grid(search.x_min, search.x_max, classifier._COARSE_COUNT)
    signs = []
    for x in xs:
        ev = probe(x)
        signs.append((x, ev, ev.certified_sign(classifier._CERTIFY_FACTOR)))
    bracket = None
    for (x1, e1, s1), (x2, e2, s2) in zip(signs, signs[1:]):
        if s1 != 0 and s2 != 0 and s1 != s2:
            bracket = (x1, e1, s1, x2, e2, s2)
            break
    if bracket is None:
        pos = sum(1 for _, _, s in signs if s == 1)
        neg = sum(1 for _, _, s in signs if s == -1)
        raise SearchExhaustedError(
            f"no certified {kind} bracket for {label} in "
            f"[{search.x_min:g}, {search.x_max:g}]: "
            f"{pos} certified positive, {neg} certified negative"
        )
    lo, elo, slo, hi, ehi, shi = bracket
    for _ in range(classifier._MAX_REFINEMENTS):
        if hi / lo - 1.0 <= classifier._REL_WIDTH:
            break
        mid = math.sqrt(lo * hi)
        emid = probe(mid)
        smid = emid.certified_sign(classifier._CERTIFY_FACTOR)
        if smid == 0:
            break
        if smid == slo:
            lo, elo = mid, emid
        else:
            hi, ehi = mid, emid
    if slo == 1:
        xp, ep, xn, en = lo, elo, hi, ehi
    else:
        xp, ep, xn, en = hi, ehi, lo, elo
    return classifier.Witness(
        kind=kind,
        x_positive=xp,
        x_negative=xn,
        positive=ep,
        negative=en,
        margin_positive=ep.value - ep.abs_error,
        margin_negative=-en.value - en.abs_error,
    )


def _waves(x: float) -> float:
    """Sign changes wherever 3 ln(x/0.9) is an odd multiple of pi/2, the
    first near x = 2.8e-3."""
    return math.cos(3.0 * math.log(x / 0.9))


class _CountingProbe:
    """fn(x) within 1e-3, recording every x it is called at; raises
    CapabilityError past x = fail_above."""

    def __init__(self, fn, fail_above: float = math.inf):
        self.fn, self.fail_above = fn, fail_above
        self.xs: list[float] = []

    def value(self, x: float) -> EvalResult:
        return EvalResult(self.fn(x), 1e-3)

    def __call__(self, x: float) -> EvalResult:
        self.xs.append(x)
        if x > self.fail_above:
            raise CapabilityError(f"probe fails at x={x}")
        return self.value(x)


# the first certified brackets end at coarse points 10 and 4, a dozen more
# following, and at 73 for the one sign change at x = 2.6, in the range
# where the family members' first brackets lie
@pytest.mark.parametrize(
    "fn",
    [_waves, lambda x: math.cos(3.0 * math.log(x / 250.0)), lambda x: math.tanh(math.log(2.6 / x))],
)
def test_witness_scan_stops_at_first_bracket(fn):
    search = SearchParams()
    xs = log_grid(search.x_min, search.x_max, classifier._COARSE_COUNT)
    early, full = _CountingProbe(fn), _CountingProbe(fn)
    w = classifier._witness_search(early, "sign_change", "synthetic", search)
    assert w == _full_scan_search(full, "sign_change", "synthetic", search)
    signs = [early.value(x).certified_sign(classifier._CERTIFY_FACTOR) for x in xs]
    j = next(i for i in range(1, len(xs)) if signs[i] * signs[i - 1] < 0)
    assert early.xs[: j + 1] == xs[: j + 1]
    bisection = full.xs[len(xs):]
    assert early.xs[j + 1:] == bisection
    assert len(early.xs) == j + 1 + len(bisection) < len(full.xs)


def test_witness_scan_without_bracket_probes_every_point():
    search = SearchParams()
    xs = log_grid(search.x_min, search.x_max, classifier._COARSE_COUNT)
    # certified positive below 1, inconclusive from 1 to 2, negative above:
    # opposite signs never sit on adjacent coarse points
    def step(x):
        return 1.0 if x < 1.0 else 0.0 if x < 2.0 else -1.0

    messages = []
    for search_fn in (classifier._witness_search, _full_scan_search):
        probe = _CountingProbe(step)
        with pytest.raises(SearchExhaustedError) as exc:
            search_fn(probe, "sign_change", "synthetic", search)
        assert probe.xs == xs
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "64 certified positive, 58 certified negative" in messages[0]


def test_witness_scan_ignores_probes_past_the_bracket():
    search = SearchParams()
    # every probe past x = 10 raises, which a full scan reaches and the
    # early exit, bracketing the first sign change, never does
    with pytest.raises(CapabilityError):
        _full_scan_search(_CountingProbe(_waves, 10.0), "sign_change", "synthetic", search)
    probe = _CountingProbe(_waves, 10.0)
    w = classifier._witness_search(probe, "sign_change", "synthetic", search)
    assert w == _full_scan_search(_CountingProbe(_waves), "sign_change", "synthetic", search)
    assert max(probe.xs) < 10.0


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
