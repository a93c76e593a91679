"""Closed-form derivatives of f, complete-monotonicity grids, telescoping.

40-digit reference values computed independently with arbitrary-precision
arithmetic.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycm import cli, cm_engine
from polycm import (
    CapabilityError,
    DomainError,
    FamilyIndex,
    PrecisionConfig,
    SearchParams,
    classify,
    cm_check,
    f_derivative,
    f_value,
    log_grid,
    magnitude_lower_bound,
    polygamma,
    signed_derivative,
)
from polycm.crosscheck import (
    finite_difference_crosscheck,
    shift_difference_kernel_check,
    telescoping_check,
)
from polycm.evaluation import result_sum

F12_AT_1 = 0.3016942779586569079905329183300197754069
F22_AT_1 = 3.375649387415348364855263992205051327205
F22_AT_3 = -0.1303627410210002037423794613979985896799
F23_AT_1_5 = 2.095994911496507130093495616559316634870


def test_frozen_values(cfg):
    pairs = [
        (FamilyIndex(1, 2), 1.0, F12_AT_1),
        (FamilyIndex(2, 2), 1.0, F22_AT_1),
        (FamilyIndex(2, 2), 3.0, F22_AT_3),
        (FamilyIndex(2, 3), 1.5, F23_AT_1_5),
    ]
    for idx, x, ref in pairs:
        r = f_value(idx, x, cfg)
        assert abs(r.value - ref) <= r.abs_error + 4 * math.ulp(max(abs(ref), 1.0))


def test_value_is_order_zero_derivative(cfg):
    for idx in (FamilyIndex(1, 2), FamilyIndex(3, 4), FamilyIndex(2, 5)):
        for x in (0.3, 1.0, 7.0):
            a = f_value(idx, x, cfg)
            b = f_derivative(idx, 0, x, cfg)
            assert a.value == b.value and a.abs_error == b.abs_error


def test_first_derivative_negative_for_nontrivial_member(cfg):
    d = f_derivative(FamilyIndex(1, 2), 1, 1.0, cfg)
    assert d.certified_sign() == -1


def test_signed_derivative_alternation(cfg):
    idx = FamilyIndex(1, 2)
    for order in range(5):
        s = signed_derivative(idx, order, 1.0, cfg)
        assert s.certified_sign() == 1
        d = f_derivative(idx, order, 1.0, cfg)
        assert s.value == (-1.0) ** order * d.value


@pytest.mark.parametrize(
    "m,n,order,x,step,cap",
    [
        (1, 2, 1, 2.0, 1e-4, 1e-6),
        (2, 3, 2, 1.5, 1e-3, 1e-4),
        (1, 1, 3, 3.0, 1e-2, 1e-3),
    ],
)
def test_finite_difference_crosscheck(cfg, m, n, order, x, step, cap):
    assert finite_difference_crosscheck(FamilyIndex(m, n), order, x, step, cfg) <= cap


def test_finite_difference_near_zero_rejected(cfg):
    with pytest.raises(DomainError):
        finite_difference_crosscheck(FamilyIndex(1, 2), 2, 0.005, 0.02, cfg)


def test_cm_check_consistent_for_cm_members(cfg):
    grid = log_grid(0.01, 100.0, 40)
    for m, n in ((1, 2), (3, 5)):
        rep = cm_check(FamilyIndex(m, n), 8, grid, cfg)
        assert rep.verdict == "consistent_with_CM"
        assert not rep.violations
        assert rep.inconclusive_fraction == 0.0


def test_cm_check_flags_certified_violation(cfg):
    rep = cm_check(FamilyIndex(2, 2), 0, [1.0, 3.0, 10.0], cfg)
    assert rep.verdict == "violation"
    worst = rep.violations[0]
    assert worst.signed_value.certified_sign() == -1
    assert worst.x in (3.0, 10.0)


@pytest.mark.parametrize("m, n", [(1, 2), (6, 1), (1, 12)])  # (1,12): gap 10..11
def test_cm_check_entries_match_signed_derivative(cfg, m, n):
    idx, grid = FamilyIndex(m, n), [0.02, 0.3, 1.0, 7.5, 40.0]
    rep = cm_check(idx, 8, grid, cfg)
    assert len(rep.entries) == 9 * len(grid)
    for e in rep.entries:
        ref = signed_derivative(idx, e.order, e.x, cfg)
        assert (e.signed_value.value, e.signed_value.abs_error) == (ref.value, ref.abs_error)


@pytest.fixture
def psi_calls(monkeypatch) -> list[tuple[int, float]]:
    """Every (order, x) that cm_engine asks polygamma for during the test,
    starting from empty psi row tables."""
    cm_engine._row.cache_clear()
    cm_engine._grid_rows.cache_clear()
    calls = []
    real = cm_engine.polygamma

    def spy(k, x, cfg):
        calls.append((k, x))
        return real(k, x, cfg)

    monkeypatch.setattr(cm_engine, "polygamma", spy)
    return calls


@pytest.mark.parametrize("m, n", [(1, 2), (6, 1), (1, 12)])
def test_cm_check_evaluates_each_psi_once(cfg, psi_calls, m, n):
    grid = [0.05, 0.5, 5.0]
    cm_check(FamilyIndex(m, n), 8, grid, cfg)
    orders = set(range(m, m + 9)) | set(range(n, n + 9))
    assert len(psi_calls) == len(set(psi_calls))
    assert set(psi_calls) == {(k, x) for k in orders for x in grid}


def test_f_derivative_requests_only_its_orders(cfg, psi_calls):
    f_derivative(FamilyIndex(2, 12), 3, 1.5, cfg)
    assert sorted(psi_calls) == [(k, 1.5) for k in (2, 3, 4, 5, 15)]


def test_assembly_matches_evalresult_arithmetic(cfg):
    # _assemble writes out product, scale and bounded_sum; the EvalResult
    # form of the Leibniz sum is the reference, bit for bit
    for m, n in ((1, 2), (3, 5), (2, 2), (6, 1)):
        for order in range(9):
            for x in (0.02, 0.7, 3.0, 40.0):
                psi = {k: polygamma(k, x, cfg.for_magnitude(magnitude_lower_bound(k, x)))
                       for k in {n + order, *range(m, m + order + 1)}}
                terms = [psi[n + order]] + [
                    (psi[m + j] * psi[m + order - j]).scaled(float(math.comb(order, j)))
                    for j in range(order + 1)
                ]
                ref = result_sum(terms)
                got = f_derivative(FamilyIndex(m, n), order, x, cfg)
                assert (got.value, got.abs_error) == (ref.value, ref.abs_error)


def _entries(rep):
    return [(e.order, e.x, e.signed_value.value, e.signed_value.abs_error, e.status)
            for e in rep.entries]


def test_row_table_cold_and_warm_agree(cfg):
    grid = log_grid(0.01, 100.0, 25)
    members = [FamilyIndex(1, 2), FamilyIndex(3, 5), FamilyIndex(2, 2)]
    cm_engine._row.cache_clear()
    cm_engine._grid_rows.cache_clear()
    cold = [_entries(cm_check(idx, 8, grid, cfg)) for idx in members]
    warm = [_entries(cm_check(idx, 8, grid, cfg)) for idx in members]
    # one kept grid with a row per point; no single-point rows
    assert cm_engine._grid_rows.cache_info().currsize == 1
    assert len(cm_engine._grid_rows(tuple(grid), cfg.target_abs_error)) == len(grid)
    assert cm_engine._row.cache_info().currsize == 0
    assert warm == cold
    # each member alone on cleared tables, against the warm, uncleared ones
    for idx, ref in zip(members, cold):
        cm_engine._row.cache_clear()
        cm_engine._grid_rows.cache_clear()
        assert _entries(cm_check(idx, 8, grid, cfg)) == ref


def test_row_table_keeps_one_row_per_budget(cfg):
    tight, loose = cfg, PrecisionConfig(target_abs_error=1e-9)
    idx, x, orders = FamilyIndex(2, 3), 0.7, range(2, 7)
    cm_engine._row.cache_clear()
    a = f_derivative(idx, 3, x, tight)
    b = f_derivative(idx, 3, x, loose)
    rows = {t: cm_engine._row(x, t) for t in (tight.target_abs_error, loose.target_abs_error)}
    assert cm_engine._row.cache_info().currsize == 2
    assert rows[tight.target_abs_error] is not rows[loose.target_abs_error]
    for c, ref in ((tight, a), (loose, b)):
        row = rows[c.target_abs_error]
        assert sorted(row) == list(orders)
        for k in orders:
            cold = polygamma(k, x, c.for_magnitude(magnitude_lower_bound(k, x)))
            assert row[k] == (cold.value, cold.abs_error)
        cm_engine._row.cache_clear()
        again = f_derivative(idx, 3, x, c)
        assert (again.value, again.abs_error) == (ref.value, ref.abs_error)


def test_row_table_shares_orders_across_members(cfg, psi_calls):
    grid = [0.05, 0.5, 5.0]
    cm_check(FamilyIndex(1, 3), 4, grid, cfg)
    first = set(psi_calls)
    assert first == {(k, x) for k in range(1, 8) for x in grid}
    psi_calls.clear()
    cm_check(FamilyIndex(1, 5), 4, grid, cfg)
    # (1,5) needs 1..5 and 5..9; (1,3) already evaluated 1..7
    assert sorted(psi_calls) == sorted((k, x) for k in (8, 9) for x in grid)


def test_grid_rows_do_not_thrash_past_the_point_table(cfg, psi_calls):
    # a grid larger than the point table keeps every row between members
    grid = log_grid(0.01, 100.0, cm_engine._POINTS_KEPT + 1)
    cm_check(FamilyIndex(1, 3), 1, grid, cfg)
    cm_check(FamilyIndex(1, 5), 1, grid, cfg)
    assert len(psi_calls) == len(set(psi_calls))
    orders = {1, 2, 3, 4, 5, 6}
    assert set(psi_calls) == {(k, x) for k in orders for x in grid}


def test_witness_searches_evaluate_each_psi_once(cfg, psi_calls):
    # both searches of one sign-changing member share coarse points and
    # bisection midpoints through the point table
    entry = classify(2, 4, cfg)
    assert entry.sign_witness is not None and entry.monotonicity_witness is not None
    assert psi_calls
    assert len(psi_calls) == len(set(psi_calls))


def test_default_classify_run_evaluates_each_psi_once(psi_calls, capsys):
    assert cli.main(["classify"]) == 0
    assert capsys.readouterr().out
    assert psi_calls
    assert len(psi_calls) == len(set(psi_calls))


def test_row_tables_stay_within_their_caps(cfg):
    # fresh search windows and CM grids per 6x6 matrix: both tables fill,
    # evict, and still give the results of a cold start
    cm_engine._row.cache_clear()
    cm_engine._grid_rows.cache_clear()

    def matrix(i):
        search = SearchParams(x_min=1e-3 * 1.1**i, x_max=1e3 * 1.3**i)
        grid = log_grid(0.01 * 1.2**i, 100.0, 40)
        return [_classify_fields(classify(m, n, cfg, cm_grid=grid, search=search))
                for m in range(1, 7) for n in range(1, 7)]

    first = matrix(0)
    for i in range(1, cm_engine._GRIDS_KEPT + 1):
        matrix(i)
    rows, grids = cm_engine._row.cache_info(), cm_engine._grid_rows.cache_info()
    assert (rows.maxsize, rows.currsize) == (cm_engine._POINTS_KEPT,) * 2
    assert (grids.maxsize, grids.currsize) == (cm_engine._GRIDS_KEPT,) * 2
    assert matrix(0) == first


def _classify_fields(entry):
    if entry.cm_report is not None:
        return entry.verdict, _entries(entry.cm_report)
    return entry.verdict, entry.sign_witness, entry.monotonicity_witness


def test_cm_check_inconclusive_cap(cfg):
    # f[1,2] is unresolved at x = 1e7 through order 2: 3 entries; the verdict
    # turns inconclusive only when they are more than 1% of the entries
    idx = FamilyIndex(1, 2)
    over = cm_check(idx, 2, log_grid(0.01, 100.0, 98) + [1e7], cfg)
    assert (len(over.inconclusive_points), len(over.entries)) == (3, 297)
    assert over.verdict == "inconclusive"
    at = cm_check(idx, 2, log_grid(0.01, 100.0, 99) + [1e7], cfg)
    assert (len(at.inconclusive_points), len(at.entries)) == (3, 300)
    assert at.verdict == "consistent_with_CM"


def test_cm_grid_validation(cfg):
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [], cfg)
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [1.0, -2.0], cfg)
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), -1, [1.0], cfg)


def test_decreasing_under_shift(cfg):
    idx = FamilyIndex(1, 2)
    a, b, c = (f_value(idx, 0.7 + k, cfg) for k in range(3))
    assert a.value - b.value > a.abs_error + b.abs_error
    assert b.value - c.value > b.abs_error + c.abs_error


def test_telescoping_identity_and_remainders(cfg):
    idx = FamilyIndex(1, 2)
    remainders = {}
    for N in (10, 100):
        rep = telescoping_check(idx, N, [0.5, 1.0, 2.0], cfg)
        assert rep.identity_ok
        assert rep.max_residual <= 1e-10
        assert all(r <= b for r, b in zip(rep.residuals, rep.residual_bounds))
        remainders[N] = dict(zip(rep.xs, rep.remainders))
    for x in (0.5, 1.0, 2.0):
        assert remainders[100][x].value < remainders[10][x].value
        assert remainders[100][x].certified_sign() == 1


def test_telescoping_validation(cfg):
    with pytest.raises(DomainError):
        telescoping_check(FamilyIndex(1, 2), 0, [1.0], cfg)
    with pytest.raises(DomainError):
        telescoping_check(FamilyIndex(1, 2), 10, [], cfg)


def test_shift_difference_kernel_residuals(cfg):
    for x in (0.5, 1.0, 2.0, 5.0):
        assert shift_difference_kernel_check(x, cfg) <= 1e-8


def test_family_index_validation():
    with pytest.raises(DomainError):
        FamilyIndex(0, 1)
    with pytest.raises(DomainError):
        FamilyIndex(1, 0)
    with pytest.raises(DomainError):
        FamilyIndex(True, 2)
    with pytest.raises(DomainError):
        FamilyIndex(2.0, 3)
    assert FamilyIndex(2, 3).label() == "f[2,3]"


def test_family_index_accepts_numpy_integers():
    # numpy is no test dependency; check its integers where it is installed
    np = pytest.importorskip("numpy", exc_type=ImportError)
    assert FamilyIndex(np.int64(2), 3) == FamilyIndex(2, 3)


def test_order_cap(cfg, psi_calls):
    with pytest.raises(CapabilityError):
        f_derivative(FamilyIndex(1, 2), 63, 1.0, cfg)
    with pytest.raises(CapabilityError):
        cm_check(FamilyIndex(1, 2), 63, [1.0, 2.0], cfg)
    assert psi_calls == []  # both refuse before evaluating anything
    with pytest.raises(DomainError):
        f_derivative(FamilyIndex(1, 2), -1, 1.0, cfg)


@given(
    m=st.integers(min_value=1, max_value=3),
    half_n=st.integers(min_value=1, max_value=3),
    order=st.integers(min_value=0, max_value=3),
    x=st.floats(min_value=0.2, max_value=15.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_property_cm_members_have_alternating_signs(m, half_n, order, x):
    idx = FamilyIndex(m, 2 * half_n - 1)
    s = signed_derivative(idx, order, x)
    # members with odd second index are completely monotonic: never certified
    # negative at any derivative order
    assert s.certified_sign() != -1


@given(x=st.floats(min_value=0.3, max_value=20.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_property_value_matches_derivative_zero(x):
    idx = FamilyIndex(2, 4)
    assert f_value(idx, x) == f_derivative(idx, 0, x)
