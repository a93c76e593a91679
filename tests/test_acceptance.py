"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion; each test also prints
a single summary line.
"""

from __future__ import annotations

import json
import math
import random

from polycm import (
    FamilyIndex,
    KernelId,
    bound_check,
    bounds_suite,
    cm_check,
    discriminant_mn,
    envelope,
    f_value,
    kappa,
    kernel_report,
    log_grid,
    polygamma,
    q_printed,
    tanh_kernel,
)
from polycm.cli import main
from reference import (
    polygamma_quadrature,
    recurrence_residual,
    shift_difference_kernel_check,
    telescoping_check,
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_classification_matrix(capsys):
    code, out = run_cli(capsys, ["classify", "--m-max", "6", "--n-max", "6"])
    assert code == 0
    doc = json.loads(out)
    entries = doc["entries"]
    assert len(entries) == 36

    nontrivial = [e for e in entries if e["verdict"] == "CM_nontrivial"]
    assert [(e["m"], e["n"]) for e in nontrivial] == [(1, 2)]

    for e in entries:
        if e["n"] % 2 == 1:
            assert e["verdict"] == "CM_trivial"
            assert e["cm_verdict"] == "consistent_with_CM"
        elif (e["m"], e["n"]) != (1, 2):
            assert e["verdict"] == "sign_changing_nonmonotonic"
            assert e["sign_x_positive"] is not None
            assert e["sign_x_negative"] is not None
            assert e["mono_x_up"] is not None
            assert e["mono_x_down"] is not None
    print("criterion 1: PASS - unique nontrivially CM member is (1,2); "
          "witnesses certified for every sign-changing member")


def test_criterion_2_cm_numeric_suite():
    grid = log_grid(0.01, 100.0, 200)
    indices = [FamilyIndex(1, 2)]
    indices += [FamilyIndex(m, n) for m in range(1, 7) for n in (1, 3, 5, 7)]
    for idx in indices:
        rep = cm_check(idx, 8, grid)
        assert rep.verdict == "consistent_with_CM", idx.label()
        assert not rep.refuted and rep.undecided == (), idx.label()
    print(f"criterion 2: PASS - {len(indices)} members clean through "
          "order 8 on 200 grid points")


def test_criterion_3_route_agreement():
    for n in range(1, 9):
        for x in (0.5, 1.0, 2.0, 10.0):
            a = polygamma(n, x)
            b = polygamma_quadrature(n, x)
            assert abs(a.value - b) <= 1e-9 * abs(a.value), (n, x)
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 8)
        x = math.exp(rng.uniform(0.0, math.log(10.0)))
        r = recurrence_residual(n, x)
        worst = max(worst, r.value)
        assert r.value <= 1e-11, (n, x, r.value)
    print(f"criterion 3: PASS - series/quadrature within 1e-9 relative; "
          f"worst recurrence residual {worst:.3e} <= 1e-11")


def test_criterion_4_kernel_suite():
    grid = log_grid(1e-6, 50.0, 64)

    omega_rep = kernel_report(KernelId("omega"), grid)
    assert omega_rep.monotonicity_verdict == "increasing"
    for check in omega_rep.limit_checks:
        assert check.passed
        assert check.achieved <= 1e-5  # -1 at zero, 0 at infinity
    assert omega_rep.range_passed

    directions = {-3: "increasing", -2: "increasing", -1: "increasing",
                  0: "decreasing", 1: "decreasing", 2: "decreasing"}
    for k, direction in directions.items():
        rep = kernel_report(KernelId("h", k), grid)
        assert rep.monotonicity_verdict == direction, k
        assert all(c.passed for c in rep.limit_checks), k
        assert rep.range_passed, k

    for t in grid:
        assert tanh_kernel(t).certified_sign() == 1
    for t in log_grid(2.0**-10, 50.0, 64):
        lhs = tanh_kernel(t).value / t
        rhs = kappa(t).value - 0.5 - 1.0 / t
        assert abs(lhs - rhs) <= 1e-10
    print("criterion 4: PASS - omega/h/tanh kernels certified: directions, "
          "limits, ranges, and the kappa identity within 1e-10")


def test_criterion_5_shift_and_telescoping():
    for x in (0.5, 1.0, 2.0, 5.0):
        assert shift_difference_kernel_check(x) <= 1e-7, x
    idx = FamilyIndex(1, 2)
    remainders = []
    for N in (10, 100, 1000):
        rep = telescoping_check(idx, N, [1.0])
        assert rep.identity_ok
        assert rep.max_residual <= 1e-10
        remainders.append(rep.remainders[0].value)
    assert remainders[0] > remainders[1] > remainders[2] > 0.0
    print(f"criterion 5: PASS - shift-difference residuals <= 1e-7; "
          f"telescoping exact, remainders {remainders[0]:.2e} > "
          f"{remainders[1]:.2e} > {remainders[2]:.2e}")


def test_criterion_6_inequality_suite():
    rep = bounds_suite(8, log_grid(0.05, 100.0, 100))
    assert not rep.failures
    for r in rep.results:
        assert r.passed
        for m in r.margins:
            assert m.value > 2.0 * m.abs_error
    print(f"criterion 6: PASS - {len(rep.results)} two-sided bounds hold "
          "with margins above twice the error bound")


def test_criterion_7_bounds_audit():
    grid = log_grid(0.05, 100.0, 40)
    for m in range(1, 5):
        for n in range(1, 5):
            rep = bound_check(m, n, grid)
            assert not rep.refuted and rep.undecided == (), (m, n)
            assert rep.printed_p_ok, (m, n)
    flagged = bound_check(1, 1, [2.0])
    entry = flagged.entries[0]
    assert entry.statuses["q_printed"] == "fails"
    assert flagged.findings
    assert entry.f_prime.value < 2.0**4 / (2.0 * 2.0**7)  # q(2)/(2*2^7) = 1/16
    assert q_printed(1, 1).terms == ((2, 4), (-4, 2))
    print("criterion 7: PASS - derived bounds and upper printed bound hold "
          "for m,n <= 4; lower printed bound discrepancy reproduced at x=2")


def test_criterion_8_envelopes_and_discriminants():
    for m, v in ((2, 1), (1, 2), (3, 1), (2, 2)):
        idx = FamilyIndex(m, 2 * v)
        for x, end in ((1e3, "infinity"), (1e-3, "zero")):
            ratio = f_value(idx, x).value / envelope(idx, x, end).value
            assert abs(ratio - 1.0) <= 0.05, (m, v, end)
    assert [discriminant_mn(m) for m in (1, 2, 3)] == [0, -5, -29]
    print("criterion 8: PASS - asymptotic envelopes within 5% at both ends; "
          "discriminants 0, -5, -29")


def test_criterion_9_deterministic_output(capsys):
    argv = ["classify", "--m-max", "6", "--n-max", "6"]
    code1, first = run_cli(capsys, argv)
    code2, second = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert first == second
    print("criterion 9: PASS - repeated classification runs are "
          "byte-identical")
