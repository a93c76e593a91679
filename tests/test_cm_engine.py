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
    polygamma,
    signed_derivative,
)
from reference import (
    finite_difference_crosscheck,
    result_sum,
    shift_difference_kernel_check,
    telescoping_check,
)

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
        assert not rep.refuted and rep.undecided == ()
        assert {e.status for e in rep.entries} == {"positive"}


def test_cm_check_flags_certified_violation():
    rep = cm_check(FamilyIndex(2, 2), 0, [1.0, 3.0, 10.0])
    assert rep.verdict == "violation" and rep.refuted
    worst = [e for e in rep.entries if e.status == "violation"][0]
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


def _clear_tables():
    """Empty the grid row table and the kept squared terms."""
    cm_engine._grid_rows.cache_clear()
    cm_engine._squares.cache_clear()


@pytest.fixture
def psi_calls(monkeypatch) -> list[tuple[int, float]]:
    """Every (order, x) that cm_engine asks polygamma for during the test,
    starting from an empty grid row table and no kept squared terms."""
    _clear_tables()
    calls = []
    real = cm_engine.polygamma

    def spy(k, x):
        calls.append((k, x))
        return real(k, x)

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


def test_assembly_matches_evalresult_arithmetic():
    # _pair_terms and _assemble write out the arithmetic of EvalResult.__mul__,
    # scaled and result_sum, with one term of twice the weight per pair j,
    # order-j; the EvalResult form of the full Leibniz sum is the reference,
    # bit for bit, for f_derivative and for the cm_check entries on kept terms
    xs = (0.02, 0.7, 3.0, 40.0)
    cases = [(m, n, order, x)
             for m, n in ((1, 2), (3, 5), (2, 2), (6, 1))
             for order in range(9)
             for x in xs]
    # at x = 1e90 the product psi^(2) psi^(3) underflows to -0.0 while every
    # psi is normal: the one place where doubling a term is not exact
    cases.append((2, 2, 1, 1e90))
    _clear_tables()
    entries = {}
    for m, n, max_order, grid in [(1, 2, 8, xs), (3, 5, 8, xs), (2, 2, 8, xs), (6, 1, 8, xs),
                                  (2, 2, 1, (1e90,))]:
        for e in cm_check(FamilyIndex(m, n), max_order, grid).entries:
            entries[m, n, e.order, e.x] = e.signed_value
    for m, n, order, x in cases:
        psi = {k: polygamma(k, x) for k in {n + order, *range(m, m + order + 1)}}
        terms = [psi[n + order]] + [
            (psi[m + j] * psi[m + order - j]).scaled(float(math.comb(order, j)))
            for j in range(order + 1)
        ]
        ref = result_sum(terms)
        got = f_derivative(FamilyIndex(m, n), order, x)
        assert (got.value, got.abs_error) == (ref.value, ref.abs_error)
        signed = entries[m, n, order, x]
        assert (signed.value, signed.abs_error) == ((-1.0) ** order * ref.value, ref.abs_error)


def _entries(rep):
    return [(e.order, e.x, e.signed_value.value, e.signed_value.abs_error, e.status)
            for e in rep.entries]


def test_row_table_cold_and_warm_agree():
    grid = log_grid(0.01, 100.0, 25)
    members = [FamilyIndex(1, 2), FamilyIndex(3, 5), FamilyIndex(2, 2)]
    _clear_tables()
    cold = [_entries(cm_check(idx, 8, grid)) for idx in members]
    warm = [_entries(cm_check(idx, 8, grid)) for idx in members]
    # one kept grid with a row per point
    assert cm_engine._grid_rows.cache_info().currsize == 1
    assert len(cm_engine._grid_rows(tuple(grid))) == len(grid)
    assert warm == cold
    # each member alone on cleared tables, against the warm, uncleared ones
    for idx, ref in zip(members, cold):
        _clear_tables()
        assert _entries(cm_check(idx, 8, grid)) == ref


def _fresh_entries(idx, max_order, grid):
    # signed_derivative fills a fresh row for each point and keeps nothing
    rows = []
    for order in range(max_order + 1):
        for x in grid:
            sv = signed_derivative(idx, order, x)
            rows.append((order, x, sv.value, sv.abs_error, cm_engine._STATUS[sv.certified_sign()]))
    return rows


def test_kept_squared_terms_match_fresh_rows():
    grid, other = [0.02, 0.3, 1.0, 7.5, 40.0], [0.05, 0.5, 5.0]
    calls = [
        (1, 2, 8, grid), (2, 3, 8, grid), (1, 5, 8, grid),  # m = 1, then 2, then 1 again
        (3, 1, 4, grid), (3, 4, 8, grid),  # m = 3's terms extended from order 4 to 8
        (3, 2, 8, other), (3, 6, 8, grid),  # a second grid and back
    ]
    _clear_tables()
    warm = [_entries(cm_check(FamilyIndex(m, n), order, g)) for m, n, order, g in calls]
    for (m, n, order, g), got in zip(calls, warm):
        assert got == _fresh_entries(FamilyIndex(m, n), order, g)
        _clear_tables()
        assert _entries(cm_check(FamilyIndex(m, n), order, g)) == got


def test_a_sweep_keeps_the_terms_of_its_last_m():
    grid = tuple(log_grid(0.01, 100.0, 20))
    for m, n in [(1, 2)] + [(m, n) for m in range(1, 7) for n in (1, 3, 5, 7)]:
        cm_check(FamilyIndex(m, n), 8, grid)
    kept = cm_engine._squares(grid, 6)
    assert cm_engine._squares.cache_info().currsize == 1
    assert sorted(kept) == list(range(9))
    assert all(len(column) == len(grid) for column in kept.values())


def test_a_raise_keeps_no_partial_column():
    # the first point's terms are built, then psi''(1e200) underflows
    grid = (1.0, 1e200)
    _clear_tables()
    for _ in range(2):
        with pytest.raises(CapabilityError, match="underflows"):
            cm_check(FamilyIndex(1, 2), 0, grid)
        assert cm_engine._squares(grid, 1) == {}


def test_a_later_fill_failure_keeps_the_lower_orders():
    # orders 0-2 of f[1,1] complete on the grid; order 3 needs psi^(4)(1e100),
    # which underflows at the last point, after the first two points assembled
    idx, grid = FamilyIndex(1, 1), (0.5, 3.0, 1e100)
    with pytest.raises(CapabilityError) as ref:
        polygamma(4, 1e100)
    _clear_tables()
    for _ in range(2):
        with pytest.raises(CapabilityError) as exc:
            cm_check(idx, 3, grid)
        assert str(exc.value) == str(ref.value)
        rows = cm_engine._grid_rows(grid)
        assert sorted(cm_engine._squares(grid, 1)) == [0, 1, 2]
        assert all(row.keys() >= {1, 2, 3} for row in rows)
        assert [4 in row for row in rows] == [True, True, False]
    warm = _entries(cm_check(idx, 2, grid))
    _clear_tables()
    assert warm == _entries(cm_check(idx, 2, grid)) == _fresh_entries(idx, 2, grid)


def test_an_earlier_overflow_comes_before_a_held_fill_failure():
    # at order 2 of f[1,2] the first point's sum overflows and psi^(4)(1e90)
    # underflows at the second: the first failure point by point is reported
    with pytest.raises(CapabilityError, match="underflows"):
        polygamma(4, 1e90)
    grid = (6.18e-52, 1e90)
    _clear_tables()
    for _ in range(2):
        with pytest.raises(CapabilityError) as exc:
            cm_check(FamilyIndex(1, 2), 2, grid)
        assert str(exc.value) == "f[1,2] derivative 2 overflows double precision"
        assert sorted(cm_engine._squares(grid, 1)) == [0, 1]


def test_an_intermediate_fsum_overflow_is_a_capability_error():
    # at order 2 of f[1,2] both pair terms are finite, but their sum is not:
    # math.fsum raises OverflowError, not an infinite sum
    x = 6.760829753919791e-52
    row = {k: tuple(polygamma(k, x)) for k in range(1, 5)}
    values, _ = cm_engine._pair_terms(1, 2, row)
    assert all(math.isfinite(v) for v in values)
    with pytest.raises(OverflowError):
        math.fsum([row[4][0], *values])
    message = "f[1,2] derivative 2 overflows double precision"
    with pytest.raises(CapabilityError) as exc:
        f_derivative(FamilyIndex(1, 2), 2, x)
    assert str(exc.value) == message
    _clear_tables()
    with pytest.raises(CapabilityError) as exc:
        cm_check(FamilyIndex(1, 2), 2, (x, 1.0))
    assert str(exc.value) == message


def test_a_raised_order_is_asked_for_again_only_where_unfilled(psi_calls):
    grid = (0.5, 3.0, 1e100)
    with pytest.raises(CapabilityError, match="underflows"):
        cm_check(FamilyIndex(1, 1), 3, grid)
    # psi^(4)(1e100) raised, after psi^(4) at the first two points was kept
    assert sorted(psi_calls) == sorted((k, x) for k in range(1, 5) for x in grid)
    assert psi_calls[-1] == (4, 1e100)
    for idx in (FamilyIndex(1, 1), FamilyIndex(1, 3)):  # both need psi^(4) at order 3 or 1
        psi_calls.clear()
        with pytest.raises(CapabilityError, match="underflows"):
            cm_check(idx, 3, grid)
        assert psi_calls == [(4, 1e100)]
        assert 4 not in cm_engine._grid_rows(grid)[2]
    psi_calls.clear()
    cm_check(FamilyIndex(1, 1), 2, grid)
    assert psi_calls == []


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
    _clear_tables()

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


def _inconclusive(report):
    return sum(e.status == "inconclusive" for e in report.entries)


def test_cm_check_inconclusive_cap():
    # f[1,2] is unresolved at x = 1e7 through order 2: 3 entries.  No share
    # of undecided entries is tolerated, however small: 3 of 297 and 3 of
    # 300 both leave the check inconclusive, and only a grid where every
    # entry is certified reads consistent_with_CM
    idx = FamilyIndex(1, 2)
    over = cm_check(idx, 2, log_grid(0.01, 100.0, 98) + [1e7])
    assert (_inconclusive(over), len(over.entries)) == (3, 297)
    assert over.verdict == "inconclusive" and not over.refuted
    at = cm_check(idx, 2, log_grid(0.01, 100.0, 99) + [1e7])
    assert (_inconclusive(at), len(at.entries)) == (3, 300)
    assert at.verdict == "inconclusive" and not at.refuted
    assert at.undecided == (1e7,)
    clear = cm_check(idx, 2, log_grid(0.01, 100.0, 99))
    assert (_inconclusive(clear), clear.verdict) == (0, "consistent_with_CM")
    assert clear.undecided == ()


def test_cm_grid_validation():
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [])
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), 2, [1.0, -2.0])
    with pytest.raises(DomainError):
        cm_check(FamilyIndex(1, 2), -1, [1.0])
    with pytest.raises(DomainError, match="grid point 1 is inf"):
        cm_check(FamilyIndex(1, 3), 1, (1.0, math.inf))


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
    # order 119 of f[1,2] needs psi^(121), one past polygamma's cap
    with pytest.raises(CapabilityError, match="order 121 beyond the cap 120"):
        f_derivative(FamilyIndex(1, 2), 119, 1.0)
    with pytest.raises(CapabilityError, match="order 121 beyond the cap 120"):
        cm_check(FamilyIndex(1, 2), 119, [1.0, 2.0])
    assert psi_calls == []  # both refuse before evaluating anything
    assert signed_derivative(FamilyIndex(1, 2), 63, 1.0).certified_sign() == 1
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
