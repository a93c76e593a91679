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


def test_frozen_values():
    pairs = [
        (FamilyIndex(1, 2), 1.0, F12_AT_1),
        (FamilyIndex(2, 2), 1.0, F22_AT_1),
        (FamilyIndex(2, 2), 3.0, F22_AT_3),
        (FamilyIndex(2, 3), 1.5, F23_AT_1_5),
    ]
    for idx, x, ref in pairs:
        r = f_value(idx, x)
        assert abs(r.value - ref) <= r.abs_error + 4 * math.ulp(max(abs(ref), 1.0))


def test_value_is_order_zero_derivative():
    for idx in (FamilyIndex(1, 2), FamilyIndex(3, 4), FamilyIndex(2, 5)):
        for x in (0.3, 1.0, 7.0):
            a = f_value(idx, x)
            b = f_derivative(idx, 0, x)
            assert a.value == b.value and a.abs_error == b.abs_error


def test_first_derivative_negative_for_nontrivial_member():
    d = f_derivative(FamilyIndex(1, 2), 1, 1.0)
    assert d.certified_sign() == -1


def test_signed_derivative_alternation():
    idx = FamilyIndex(1, 2)
    for order in range(5):
        s = signed_derivative(idx, order, 1.0)
        assert s.certified_sign() == 1
        d = f_derivative(idx, order, 1.0)
        assert s.value == (-1.0) ** order * d.value


@pytest.mark.parametrize(
    "m,n,order,x,step,cap",
    [
        (1, 2, 1, 2.0, 1e-4, 1e-6),
        (2, 3, 2, 1.5, 1e-3, 1e-4),
        (1, 1, 3, 3.0, 1e-2, 1e-3),
    ],
)
def test_finite_difference_crosscheck(m, n, order, x, step, cap):
    assert finite_difference_crosscheck(FamilyIndex(m, n), order, x, step) <= cap


def test_finite_difference_near_zero_rejected():
    with pytest.raises(DomainError):
        finite_difference_crosscheck(FamilyIndex(1, 2), 2, 0.005, 0.02)


def test_cm_check_consistent_for_cm_members():
    grid = log_grid(0.01, 100.0, 40)
    for m, n in ((1, 2), (3, 5)):
        rep = cm_check(FamilyIndex(m, n), 8, grid)
        assert rep.verdict == "consistent_with_CM"
        assert not rep.violations
        assert rep.inconclusive_fraction == 0.0


def test_cm_check_flags_certified_violation():
    rep = cm_check(FamilyIndex(2, 2), 0, [1.0, 3.0, 10.0])
    assert rep.verdict == "violation"
    worst = rep.violations[0]
    assert worst.signed_value.certified_sign() == -1
    assert worst.x in (3.0, 10.0)


@pytest.mark.parametrize("m, n", [(1, 2), (6, 1), (1, 12)])  # (1,12): gap 10..11
def test_cm_check_entries_match_signed_derivative(m, n):
    idx, grid = FamilyIndex(m, n), [0.02, 0.3, 1.0, 7.5, 40.0]
    rep = cm_check(idx, 8, grid)
    assert len(rep.entries) == 9 * len(grid)
    for e in rep.entries:
        ref = signed_derivative(idx, e.order, e.x)
        assert (e.signed_value.value, e.signed_value.abs_error) == (ref.value, ref.abs_error)


@pytest.fixture
def psi_calls(monkeypatch) -> list[tuple[int, float]]:
    """Every (order, x) that cm_engine asks polygamma for during the test,
    starting from an empty grid row table."""
    cm_engine._grid_rows.cache_clear()
    calls = []
    real = cm_engine.polygamma

    def spy(k, x, cfg):
        calls.append((k, x))
        return real(k, x, cfg)

    monkeypatch.setattr(cm_engine, "polygamma", spy)
    return calls


@pytest.mark.parametrize("m, n", [(1, 2), (6, 1), (1, 12)])
def test_cm_check_evaluates_each_psi_once(psi_calls, m, n):
    grid = [0.05, 0.5, 5.0]
    cm_check(FamilyIndex(m, n), 8, grid)
    orders = set(range(m, m + 9)) | set(range(n, n + 9))
    assert len(psi_calls) == len(set(psi_calls))
    assert set(psi_calls) == {(k, x) for k in orders for x in grid}


def test_f_derivative_requests_only_its_orders(psi_calls):
    f_derivative(FamilyIndex(2, 12), 3, 1.5)
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
                got = f_derivative(FamilyIndex(m, n), order, x)
                assert (got.value, got.abs_error) == (ref.value, ref.abs_error)


def _entries(rep):
    return [(e.order, e.x, e.signed_value.value, e.signed_value.abs_error, e.status)
            for e in rep.entries]


def test_row_table_cold_and_warm_agree():
    grid = log_grid(0.01, 100.0, 25)
    members = [FamilyIndex(1, 2), FamilyIndex(3, 5), FamilyIndex(2, 2)]
    cm_engine._grid_rows.cache_clear()
    cold = [_entries(cm_check(idx, 8, grid)) for idx in members]
    warm = [_entries(cm_check(idx, 8, grid)) for idx in members]
    # one kept grid with a row per point
    assert cm_engine._grid_rows.cache_info().currsize == 1
    assert len(cm_engine._grid_rows(tuple(grid))) == len(grid)
    assert warm == cold
    # each member alone on cleared tables, against the warm, uncleared ones
    for idx, ref in zip(members, cold):
        cm_engine._grid_rows.cache_clear()
        assert _entries(cm_check(idx, 8, grid)) == ref


def test_row_table_shares_orders_across_members(psi_calls):
    grid = [0.05, 0.5, 5.0]
    cm_check(FamilyIndex(1, 3), 4, grid)
    first = set(psi_calls)
    assert first == {(k, x) for k in range(1, 8) for x in grid}
    psi_calls.clear()
    cm_check(FamilyIndex(1, 5), 4, grid)
    # (1,5) needs 1..5 and 5..9; (1,3) already evaluated 1..7
    assert sorted(psi_calls) == sorted((k, x) for k in (8, 9) for x in grid)


def test_grid_rows_do_not_thrash_past_the_point_table(psi_calls):
    # a grid of more than a thousand points keeps every row between members
    grid = log_grid(0.01, 100.0, 1025)
    cm_check(FamilyIndex(1, 3), 1, grid)
    cm_check(FamilyIndex(1, 5), 1, grid)
    assert len(psi_calls) == len(set(psi_calls))
    orders = {1, 2, 3, 4, 5, 6}
    assert set(psi_calls) == {(k, x) for k in orders for x in grid}


def test_default_classify_run_evaluates_each_psi_once(psi_calls, capsys):
    assert cli.main(["classify"]) == 0
    assert capsys.readouterr().out
    assert psi_calls
    assert len(psi_calls) == len(set(psi_calls))


def test_row_tables_stay_within_their_caps():
    # fresh search windows and CM grids per 6x6 matrix: the grid table
    # fills, evicts, and still gives the results of a cold start
    cm_engine._grid_rows.cache_clear()

    def matrix(i):
        search = SearchParams(x_min=1e-3 * 1.1**i, x_max=1e3 * 1.3**i)
        grid = log_grid(0.01 * 1.2**i, 100.0, 40)
        return [_classify_fields(classify(m, n, cm_grid=grid, search=search))
                for m in range(1, 7) for n in range(1, 7)]

    first = matrix(0)
    for i in range(1, cm_engine._GRIDS_KEPT + 1):
        matrix(i)
    grids = cm_engine._grid_rows.cache_info()
    assert (grids.maxsize, grids.currsize) == (cm_engine._GRIDS_KEPT,) * 2
    assert matrix(0) == first


def _classify_fields(entry):
    if entry.cm_report is not None:
        return entry.verdict, _entries(entry.cm_report)
    return entry.verdict, entry.sign_witness, entry.monotonicity_witness


def test_cm_check_inconclusive_cap():
    # f[1,2] is unresolved at x = 1e7 through order 2: 3 entries; the verdict
    # turns inconclusive only when they are more than 1% of the entries
    idx = FamilyIndex(1, 2)
    over = cm_check(idx, 2, log_grid(0.01, 100.0, 98) + [1e7])
    assert (len(over.inconclusive_points), len(over.entries)) == (3, 297)
    assert over.verdict == "inconclusive"
    at = cm_check(idx, 2, log_grid(0.01, 100.0, 99) + [1e7])
    assert (len(at.inconclusive_points), len(at.entries)) == (3, 300)
    assert at.verdict == "consistent_with_CM"


def test_cm_grid_validation():
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [])
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [1.0, -2.0])
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), -1, [1.0])


def test_decreasing_under_shift():
    idx = FamilyIndex(1, 2)
    a, b, c = (f_value(idx, 0.7 + k) for k in range(3))
    assert a.value - b.value > a.abs_error + b.abs_error
    assert b.value - c.value > b.abs_error + c.abs_error


def test_telescoping_identity_and_remainders():
    idx = FamilyIndex(1, 2)
    remainders = {}
    for N in (10, 100):
        rep = telescoping_check(idx, N, [0.5, 1.0, 2.0])
        assert rep.identity_ok
        assert rep.max_residual <= 1e-10
        assert all(r <= b for r, b in zip(rep.residuals, rep.residual_bounds))
        remainders[N] = dict(zip(rep.xs, rep.remainders))
    for x in (0.5, 1.0, 2.0):
        assert remainders[100][x].value < remainders[10][x].value
        assert remainders[100][x].certified_sign() == 1


def test_telescoping_validation():
    with pytest.raises(DomainError):
        telescoping_check(FamilyIndex(1, 2), 0, [1.0])
    with pytest.raises(DomainError):
        telescoping_check(FamilyIndex(1, 2), 10, [])


def test_shift_difference_kernel_residuals():
    for x in (0.5, 1.0, 2.0, 5.0):
        assert shift_difference_kernel_check(x) <= 1e-8


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


def test_order_cap(psi_calls):
    with pytest.raises(CapabilityError):
        f_derivative(FamilyIndex(1, 2), 63, 1.0)
    with pytest.raises(CapabilityError):
        cm_check(FamilyIndex(1, 2), 63, [1.0, 2.0])
    assert psi_calls == []  # both refuse before evaluating anything
    with pytest.raises(DomainError):
        f_derivative(FamilyIndex(1, 2), -1, 1.0)


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
