"""Command-line interface: exit codes, output schemas, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import polycm
from polycm import cm_engine
from polycm import cli
from polycm.cli import main

CLASSIFY_SMALL = [
    "classify", "--m-max", "2", "--n-max", "2",
    "--grid-count", "12", "--orders", "3",
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, CLASSIFY_SMALL)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "entries", "findings", "summary"}
    assert len(doc["entries"]) == 4
    by_key = {(e["m"], e["n"]): e for e in doc["entries"]}
    assert by_key[(1, 2)]["verdict"] == "CM_nontrivial"
    assert by_key[(2, 2)]["verdict"] == "sign_changing_nonmonotonic"
    assert by_key[(2, 2)]["sign_x_negative"] is not None
    assert by_key[(1, 1)]["verdict"] == "CM_trivial"
    assert doc["summary"]["CM_trivial"] == 2
    assert doc["summary"]["CM_nontrivial"] == 1


def test_classify_deterministic(capsys):
    _, first, _ = run(capsys, CLASSIFY_SMALL)
    _, second, _ = run(capsys, CLASSIFY_SMALL)
    assert first == second


def test_check_cm_pass_and_fail(capsys):
    code, out, _ = run(
        capsys,
        ["check-cm", "--m", "1", "--n", "2", "--orders", "4", "--grid-count", "20"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["verdict"] == "consistent_with_CM"
    assert doc["findings"] == []

    code, out, _ = run(
        capsys,
        ["check-cm", "--m", "2", "--n", "2", "--orders", "0",
         "--grid-min", "1", "--grid-max", "10", "--grid-count", "5"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["summary"]["verdict"] == "violation"
    assert doc["findings"]


def test_check_cm_entry_rows_pair_value_with_error(capsys):
    _, out, _ = run(
        capsys,
        ["check-cm", "--m", "1", "--n", "3", "--orders", "1",
         "--grid-count", "4", "--grid-min", "0.5", "--grid-max", "5"],
    )
    doc = json.loads(out)
    for row in doc["entries"]:
        assert set(row) >= {"order", "x", "signed_value", "abs_error", "status"}
        assert row["abs_error"] >= 0.0
        assert row["status"] in ("positive", "inconclusive", "violation")


def test_kernels_commands(capsys):
    code, out, _ = run(capsys, ["kernels", "--kernel", "omega"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["monotonicity"] == "increasing"
    assert all(row["passed"] for row in doc["summary"]["limit_checks"])

    code, out, _ = run(capsys, ["kernels", "--kernel", "h", "--k", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["monotonicity"] == "decreasing"
    inf_rows = [r for r in doc["summary"]["limit_checks"] if r["end"] == "infinity"]
    assert inf_rows[0]["passed"] is True and inf_rows[0]["achieved"] > 1e-5
    assert set(inf_rows[0]) == {"end", "expected", "achieved", "passed"}


def test_kernels_undecided_steps_exit_3(capsys):
    # three points a few ulps apart: rounding leaves tanh's steps undecided,
    # which refutes nothing
    argv = ["kernels", "--kernel", "tanh", "--grid-min", "1", "--grid-max",
            "1.000000000000001", "--grid-count", "3", "--grid-scale", "linear"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == ("polycm: numeric capability limit: "
                   "kernel steps and distances inconclusive at "
                   "t = 1.0, 1.0000000000000004, 1.000000000000001\n")
    assert json.loads(out)["summary"]["monotonicity"] == "none"


def test_kernels_refutation_exits_1(capsys, monkeypatch):
    # omega pinned above 0: its distance from the limit 0 is certified
    # negative, a refutation however the steps fall
    monkeypatch.setattr(polycm.kernels, "omega", lambda t: polycm.EvalResult(1e-3, 1e-12))
    code, out, err = run(capsys, ["kernels", "--kernel", "omega", "--grid-count", "4"])
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["summary"]["range_passed"] is False
    assert doc["findings"][0].startswith("range margin not cleared at t=1e-06: -1.000e-03")


def test_kernels_refutation_outranks_undecided_points(capsys, monkeypatch):
    # omega pinned at -0.5 at t = 1 and 2, and at -0.75 at t = 3: the flat
    # step 1 -> 2 is left undecided by its error, and the step 2 -> 3 is
    # certified against omega's increase
    def pinned(t):
        return polycm.EvalResult(-0.5 if t < 3.0 else -0.75, 1e-12)

    monkeypatch.setattr(polycm.kernels, "omega", pinned)
    monkeypatch.setattr(polycm.kernels, "omega_plus_one", lambda t: pinned(t) + 1.0)
    rep = polycm.kernel_report(polycm.KernelId("omega"), [1.0, 2.0, 3.0])
    assert rep.refuted and rep.undecided == (1.0, 2.0)
    argv = ["kernels", "--kernel", "omega", "--grid-min", "1", "--grid-max", "3",
            "--grid-count", "3", "--grid-scale", "linear"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["summary"]["monotonicity"] == "none"
    assert doc["findings"] == ["inconclusive step at t=1..2: diff=0.000e+00 within error 2.000e-12"]


def test_inequalities_command(capsys):
    code, out, _ = run(
        capsys, ["inequalities", "--k-max", "2", "--grid-count", "10"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failures"] == 0
    assert doc["summary"]["checks"] == 3 * 10
    assert len(doc["entries"]) == 3 * 10


def test_bounds_command_reports_findings_without_failing(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", "--m", "1", "--n", "1", "--grid-min", "0.5",
         "--grid-max", "5", "--grid-count", "9"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["derived_ok"] is True
    assert doc["findings"]


def test_bounds_unresolved_derived_points_exit_3(capsys):
    # at x = 1e-60 and 1e-29 rounding cannot resolve q_derived: no failure,
    # so derived_ok holds, but the audit is incomplete there (exit 3)
    argv = ["bounds", "--m", "1", "--n", "1", "--grid-min", "1e-60", "--grid-count", "3"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == ("polycm: numeric capability limit: "
                   "derived bounds inconclusive at x = 1e-60, 1.0000000000000071e-29\n")
    doc = json.loads(out)
    assert doc["summary"]["derived_ok"] is True
    derived = [e[f"{name}_status"] for e in doc["entries"] for name in ("q_derived", "p_derived")]
    assert "fails" not in derived and derived.count("inconclusive") == 2


def test_inequalities_unresolved_margins_exit_3(capsys):
    # past x ~ 1e149 psi(x) and psi'(x) round onto their bounds: no margin is
    # certified negative, so this is a capability limit, not a failure
    argv = ["inequalities", "--k-max", "1", "--grid-max", "1e300", "--grid-count", "3"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == ("polycm: numeric capability limit: "
                   "inequality margins inconclusive at x = 2.2360679774998355e+149, 1e+300\n")
    doc = json.loads(out)
    assert doc["summary"]["failures"] == len(doc["findings"]) == 4


# x = 1 is the middle point: |psi'(1)| is bounded by 1.5 < |psi'| < 2
INEQUALITIES_AT_1 = ["inequalities", "--k-max", "1", "--grid-min", "0.5", "--grid-max", "1.5",
                     "--grid-count", "3", "--grid-scale", "linear"]


def _plant_psi1_at_1(monkeypatch, planted):
    """psi'(1) planted below the inequality suite: its own checks and its
    own reading of their margins then run on it."""
    real = polycm.inequalities.polygamma
    monkeypatch.setattr(polycm.inequalities, "polygamma",
                        lambda k, x: planted if (k, x) == (1, 1.0) else real(k, x))


def test_inequalities_violated_margin_exits_1(capsys, monkeypatch):
    # both inequalities hold, so a certified-negative margin must be
    # planted: |psi'(1)| = 0.5 puts the lower margin at 0.5 - 1.5 = -1
    _plant_psi1_at_1(monkeypatch, polycm.EvalResult(0.5, 1e-16))
    rep = polycm.bounds_suite(1, [0.5, 1.0, 1.5])
    [row] = rep.failures
    assert (row.k, row.x, row.margins[0], row.passed) == (1, 1.0, -1.0, False)
    assert rep.refuted and rep.undecided == ()
    code, out, err = run(capsys, INEQUALITIES_AT_1)
    assert code == 1 and err == ""
    assert json.loads(out)["summary"]["failures"] == 1


def test_inequality_margin_inside_twice_its_error_is_undecided(capsys, monkeypatch):
    # a margin of 1.5 times its error clears the error once but not twice:
    # the suite reads margins at factor 2 in both the check and the verdict,
    # so the row fails and is left undecided, neither passed nor refuted
    error = 2.0**-30
    margin_error = error + 2.0 * math.ulp(2.0)
    _plant_psi1_at_1(monkeypatch, polycm.EvalResult(1.5 + 1.5 * margin_error, error))
    rep = polycm.bounds_suite(1, [0.5, 1.0, 1.5])
    [row] = rep.failures
    assert row.margin_error == margin_error
    assert row.margins[0] == pytest.approx(1.5 * margin_error, rel=1e-6)
    assert not row.passed
    assert not rep.refuted and rep.undecided == (1.0,)
    code, _, err = run(capsys, INEQUALITIES_AT_1)
    assert code == 3
    assert err == "polycm: numeric capability limit: inequality margins inconclusive at x = 1.0\n"


@pytest.fixture
def planted_cm_violation(monkeypatch):
    """psi'(100) planted at -0.5 below the CM engine: f[1,1] = [psi']^2 +
    psi' is then -0.25 at x = 100, the last point of classify's default
    grid, certified negative.  The kept grid rows are cleared before and
    after, so neither a real nor a planted psi outlives the test."""
    real = cm_engine.polygamma

    def planted(k, x):
        return polycm.EvalResult(-0.5, 1e-16) if (k, x) == (1, 100.0) else real(k, x)

    def clear():
        cm_engine._grid_rows.cache_clear()
        cm_engine._squares.cache_clear()

    clear()
    monkeypatch.setattr(cm_engine, "polygamma", planted)
    yield
    clear()


def test_classify_certified_violation_exits_1(capsys, planted_cm_violation):
    # every CM member is CM, so a certified violation must be planted
    rep = polycm.cm_check(polycm.FamilyIndex(1, 1), 4, [1.0, 10.0, 100.0])
    assert (rep.verdict, rep.refuted) == ("violation", True)
    assert [(e.order, e.x) for e in rep.entries if e.status == "violation"] == [(0, 100.0)]
    # classify reports the evidence against its verdict and raises nothing
    entry = polycm.classify(1, 1)
    assert (entry.verdict, entry.cm_report.verdict) == ("CM_trivial", "violation")
    # the table is printed, and cli.main alone turns the refutation into exit 1
    code, out, err = run(capsys, ["classify", "--m-max", "1", "--n-max", "1"])
    assert code == 1 and err == ""
    [row] = json.loads(out)["entries"]
    assert (row["m"], row["n"], row["verdict"], row["cm_verdict"]) == (1, 1, "CM_trivial",
                                                                       "violation")


def test_classify_names_undecided_cm_entries_and_exits_3(capsys):
    # far out, f[1,2]'s derivatives sink below their bounds: 19 of its 45
    # CM entries are undecided, so the run prints its table and exits 3,
    # naming their x
    argv = ["classify", "--m-max", "1", "--n-max", "2",
            "--grid-min", "3e6", "--grid-max", "1e8", "--grid-count", "5"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == ("polycm: numeric capability limit: CM entries inconclusive at x = "
                   "7208434.2424042635, 17320508.075688824, 41617914.50287827, 100000000.0\n")
    doc = json.loads(out)
    assert [(e["m"], e["n"], e["verdict"], e["cm_verdict"], e["cm_inconclusive_points"],
             e["cm_min_margin"]) for e in doc["entries"]] == [
        (1, 1, "CM_trivial", "consistent_with_CM", 0, 2.4000001799999954e-39),
        (1, 2, "CM_nontrivial", "inconclusive", 19, -1.5813910455110007e-28),
    ]
    assert doc["findings"] == []
    assert doc["summary"] == {"CM_nontrivial": 1, "CM_trivial": 1,
                              "sign_changing_nonmonotonic": 0}


def test_usage_errors(capsys):
    code, _, err = run(capsys, ["classify", "--grid-min", "-1"])
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, ["kernels", "--kernel", "omega", "--grid-count", "1"])
    assert code == 2
    code, _, err = run(capsys, ["check-cm", "--grid-max", "inf"])
    assert code == 2
    assert "finite" in err
    code, out, err = run(capsys, ["classify", "--m-max", "0"])
    assert code == 2
    assert out == "" and "--m-max" in err
    # each message names the flag as typed
    for argv, message in (
        (["check-cm", "--orders", "-1"], "--orders must be >= 0, got -1"),
        (["classify", "--orders", "-1"], "--orders must be >= 0, got -1"),
        (["inequalities", "--k-max", "0"], "--k-max must be >= 1, got 0"),
        (["check-cm", "--m", "0"], "--m must be >= 1, got 0"),
        (["check-cm", "--n", "0"], "--n must be >= 1, got 0"),
        (["bounds", "--m", "0"], "--m must be >= 1, got 0"),
        (["bounds", "--n", "0"], "--n must be >= 1, got 0"),
        (["classify", "--grid-count", "1"], "--grid-count must be >= 2, got 1"),
        (["classify", "--grid-min", "0"], "--grid-min must be a finite positive real, got 0.0"),
        (["kernels", "--grid-max", "nan"], "--grid-max must be finite, got nan"),
        (["check-cm", "--grid-min", "5", "--grid-max", "1"],
         "--grid-min must be below --grid-max, got 5.0 and 1.0"),
    ):
        assert run(capsys, argv) == (2, "", f"polycm: usage error: {message}\n")
    code, _, err = run(capsys, ["bounds", "--grid-min", "5", "--grid-max", "1"])
    assert code == 2


SMALL_RUNS = (
    CLASSIFY_SMALL,
    ["check-cm", "--orders", "1", "--grid-count", "4"],
    ["kernels", "--grid-count", "4"],
    ["inequalities", "--k-max", "1", "--grid-count", "4"],
    ["bounds", "--grid-count", "4"],
)


def test_no_subcommand_takes_a_precision(capsys):
    # every evaluation runs under the default budget adapted to its own
    # magnitude, so no subcommand accepts a budget or reports one
    for argv in SMALL_RUNS:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--precision", "1e-9"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert not {"precision", "precision_rel_floor"} & set(json.loads(out)["config"])


def test_kernel_power_only_for_h(capsys):
    code, out, err = run(capsys, ["kernels", "--kernel", "omega", "--k", "3"])
    assert code == 2
    assert out == "" and "omega takes no power parameter" in err
    code, out, _ = run(capsys, ["kernels", "--kernel", "h", "--grid-count", "4"])
    assert code == 0
    assert json.loads(out)["config"]["kernel"] == "h[0]"


@pytest.mark.parametrize("target", ["missing/x.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, target):
    # a missing directory, then a directory in place of a file
    path = tmp_path / target
    code, out, err = run(capsys, ["kernels", "--grid-count", "4", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"polycm: usage error: cannot write --out {path}")
    assert "Traceback" not in err


def _fresh_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this polycm
    and, from the tests' directory, the reference module."""
    src = os.path.dirname(os.path.dirname(polycm.__file__))
    path = os.pathsep.join([src, os.path.dirname(__file__)])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout


def test_import_does_not_load_scipy():
    # polycm needs neither numpy nor scipy, and the verification routes of
    # the tests' reference module (which load mpmath) stay off the import
    # path; every CLI call imports polycm, so loading any would slow it
    out = _fresh_python(
        "import sys, polycm, polycm.cli; "
        "print('scipy' in sys.modules, 'numpy' in sys.modules, "
        "'mpmath' in sys.modules, 'reference' in sys.modules)"
    )
    assert out.strip() == "False False False False"


def test_crosscheck_import_does_not_load_numpy_or_scipy():
    # the verification routes run on the standard library and mpmath, so the
    # test extra needs neither package
    out = _fresh_python(
        "import sys, reference; "
        "print('scipy' in sys.modules, 'numpy' in sys.modules, 'mpmath' in sys.modules)"
    )
    assert out.strip() == "False False True"


def test_import_does_not_load_dataclasses():
    # polycm's records are named tuples: dataclasses (and the inspect module
    # it loads) took about half of a CLI call's import time
    out = _fresh_python(
        "import sys, polycm, polycm.cli; print('dataclasses' in sys.modules)"
    )
    assert out.strip() == "False"


def test_import_does_not_load_fractions_or_decimal():
    # exact rationals are integer pairs rounded once by int / int, so the
    # production path needs neither module (fractions imports decimal)
    out = _fresh_python(
        "import sys, polycm, polycm.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    assert out.strip() == "[]"


def test_cli_runs_without_numpy_or_scipy():
    # None in sys.modules makes any import of them fail, also one made
    # lazily inside a function, so each subcommand runs on the stdlib alone
    out = _fresh_python(textwrap.dedent("""
        import sys
        sys.modules["numpy"] = sys.modules["scipy"] = None
        import contextlib, io
        from polycm.cli import main
        for argv in (
            ["classify", "--m-max", "2", "--n-max", "2", "--grid-count", "12", "--orders", "3"],
            ["check-cm", "--m", "1", "--n", "2", "--orders", "4", "--grid-count", "20"],
            ["kernels", "--kernel", "omega", "--grid-count", "16"],
            ["inequalities", "--k-max", "2", "--grid-count", "10"],
            ["bounds", "--m", "1", "--n", "1", "--grid-count", "9"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], code)
    """))
    assert out.splitlines() == [
        "classify 0", "check-cm 0", "kernels 0", "inequalities 0", "bounds 0",
    ]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_capability_exit_code(capsys):
    # order 119 of f[1,2] needs psi^(121), one past polygamma's cap of 120
    code, _, err = run(
        capsys,
        ["check-cm", "--m", "1", "--n", "2", "--orders", "119", "--grid-count", "4"],
    )
    assert code == 3
    assert "capability" in err and "beyond the cap 120" in err
    # magnitudes that overflow doubles are capability limits, not usage errors
    for argv in (
        ["check-cm", "--grid-min", "1e-300", "--orders", "2"],
        ["inequalities", "--k-max", "200"],
        # psi'(1e-100)^2 overflows in the Leibniz product
        ["check-cm", "--m", "1", "--n", "2", "--grid-min", "1e-100", "--orders", "0"],
        # finite products whose sum overflows
        ["check-cm", "--m", "1", "--n", "2", "--grid-min", "6.18e-52",
         "--grid-max", "6.19e-52", "--grid-count", "2", "--orders", "2"],
        # E(t) ~ 1/t overflows below t ~ 5.6e-309
        ["kernels", "--kernel", "kappa", "--grid-min", "1e-310", "--grid-count", "3"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 3
        assert "capability" in err
    # E(t) and omega(t) underflow to 0 past t ~ 745: their range margins
    # are undecided there, and the report is printed
    for kernel in (["omega"], ["kappa"], ["h", "--k", "0"]):
        code, out, err = run(capsys, ["kernels", "--kernel", *kernel, "--grid-max", "1000"])
        assert code == 3
        assert json.loads(out)["summary"]["range_passed"] is False
        assert err == ("polycm: numeric capability limit: "
                       "kernel steps and distances inconclusive at t = 1000.0\n")


MIXED_OVERFLOW = ["check-cm", "--m", "1", "--n", "2", "--orders", "0",
                  "--grid-min", "1e-100", "--grid-max", "1e200", "--grid-count", "2"]


@pytest.mark.parametrize("argv, message", [
    # the first point's Leibniz product overflows before the second point's
    # psi underflows: the first failure is the first in point-major order
    (MIXED_OVERFLOW, "f[1,2] derivative 0 overflows double precision"),
    (["check-cm", "--m", "1", "--n", "2", "--grid-min", "1e-100", "--orders", "0"],
     "f[1,2] derivative 0 overflows double precision"),
    (["check-cm", "--m", "1", "--n", "2", "--grid-min", "6.18e-52",
      "--grid-max", "6.19e-52", "--grid-count", "2", "--orders", "2"],
     "f[1,2] derivative 2 overflows double precision"),
    (["classify", "--grid-min", "1e-100"], "f[1,1] derivative 0 overflows double precision"),
    # psi underflows at the last point, with no overflow before it
    (["check-cm", "--m", "1", "--n", "2", "--orders", "0", "--grid-min", "1",
      "--grid-max", "1e200", "--grid-count", "2"], "y^-2 underflows double precision at y=1e+200"),
])
def test_capability_error_names_the_first_failure(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (3, "", f"polycm: numeric capability error: {message}\n")


def test_capability_error_repeats_on_the_same_grid(capsys):
    assert run(capsys, MIXED_OVERFLOW)[0] == 3
    # the same grid again, now with its rows and squared terms kept
    for _ in range(2):
        with pytest.raises(polycm.CapabilityError) as exc:
            polycm.cm_check(polycm.FamilyIndex(1, 2), 0, polycm.log_grid(1e-100, 1e200, 2))
        assert str(exc.value) == "f[1,2] derivative 0 overflows double precision"


INCONCLUSIVE_CM = ["check-cm", "--m", "1", "--n", "2",
                   "--grid-min", "3e6", "--grid-max", "1e8", "--grid-count", "5"]


def test_check_cm_reports_an_inconclusive_run(capsys):
    # far out, the values of f[1,2] and its derivatives sink below their
    # error bounds: 31 of the 45 entries are unresolved, not violations, a
    # capability limit (exit 3) that names their points
    code, out, err = run(capsys, INCONCLUSIVE_CM)
    assert code == 3
    assert err == ("polycm: numeric capability limit: CM entries inconclusive at x = "
                   "7208434.2424042635, 17320508.075688824, 41617914.50287827, 100000000.0\n")
    doc = json.loads(out)
    assert doc["summary"]["verdict"] == "inconclusive"
    assert doc["summary"]["violations"] == 0
    assert (doc["summary"]["inconclusive"], len(doc["entries"])) == (31, 45)
    assert doc["summary"]["inconclusive_fraction"] == pytest.approx(0.6889, abs=1e-4)
    assert len(doc["findings"]) == 31
    assert doc["findings"][0] == "inconclusive at order 0, x=7.20843e+06"


def test_check_cm_tolerates_no_undecided_entry(capsys):
    # 9 of the 1,800 entries (0.5 %) sit past x ~ 3e6, where rounding hides
    # f[1,2]'s sign; CM is consistent only when every entry is certified
    code, out, err = run(capsys, ["check-cm", "--m", "1", "--n", "2", "--grid-max", "5e6"])
    assert code == 3
    assert err == ("polycm: numeric capability limit: CM entries inconclusive at x = "
                   "3022754.7952561625, 3342845.7395422356, 3696832.325239496, "
                   "4088303.890088311, 4521229.860385513, 5000000.0\n")
    summary = json.loads(out)["summary"]
    assert summary["verdict"] == "inconclusive"
    assert (summary["violations"], summary["inconclusive"]) == (0, 9)
    assert summary["inconclusive_fraction"] == 9 / 1800


def test_text_format_ends_with_the_findings(capsys):
    code, out, _ = run(capsys, INCONCLUSIVE_CM + ["--format", "text"])
    assert code == 3
    lines = out.splitlines()
    findings = [line for line in lines if line.startswith("finding: ")]
    assert len(findings) == 31
    assert lines[-31:] == findings
    assert lines[-1] == "finding: inconclusive at order 8, x=1e+08"


def test_classify_text_and_csv_leave_empty_cells_empty(capsys):
    # the CM rows have no witness: their witness cells render empty, and
    # the integer cells (m, n, the unresolved count) as plain integers
    argv = ["classify", "--m-max", "2", "--n-max", "2"]
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["m"], r["n"], r["verdict"]) for r in rows] == [
        ("1", "1", "CM_trivial"), ("1", "2", "CM_nontrivial"),
        ("2", "1", "CM_trivial"), ("2", "2", "sign_changing_nonmonotonic"),
    ]
    witness = [k for k in rows[0] if k.startswith(("sign_", "mono_"))]
    assert len(witness) == 12
    for r in rows[:3]:
        assert r["cm_inconclusive_points"] == "0"
        assert all(r[k] == "" for k in witness)
    code, out, _ = run(capsys, argv + ["--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == list(rows[0])
    # the same cells as the CSV, the empty ones left as padding
    assert [line.split() for line in lines[2:6]] == [[v for v in r.values() if v] for r in rows]


def test_csv_format(capsys):
    code, out, _ = run(
        capsys,
        ["inequalities", "--k-max", "1", "--grid-count", "5", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    assert "x" in header and "k" in header
    assert len(body) == 10
    assert all(len(r) == len(header) for r in body)


def test_text_format(capsys):
    code, out, _ = run(
        capsys, ["kernels", "--kernel", "tanh", "--format", "text"]
    )
    assert code == 0
    assert "tanh" in out


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["inequalities", "--k-max", "1", "--grid-count", "4"]
    _, streamed, _ = run(capsys, argv)
    target = tmp_path / "report.json"
    code = main(argv + ["--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8") == streamed


def test_json_sorts_keys(capsys):
    _, out, _ = run(capsys, ["kernels", "--kernel", "kappa"])
    doc = json.loads(out)
    assert list(doc) == sorted(doc)


def _indent2(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


@pytest.mark.parametrize("argv", [
    CLASSIFY_SMALL,
    ["check-cm", "--m", "2", "--n", "2", "--orders", "3", "--grid-count", "12"],
    ["kernels", "--kernel", "h", "--k", "1", "--grid-count", "8"],
    ["inequalities", "--k-max", "2", "--grid-count", "6"],
    ["bounds", "--m", "2", "--n", "3", "--grid-count", "7"],
])
def test_render_json_rows_match_the_indented_document(argv):
    # the rows go through json's C encoder, the frame through indent=2:
    # the bytes are those of one indent=2 dump of the whole document
    args = cli.build_parser().parse_args(argv)
    doc = cli._COMMANDS[args.command](args)[0]
    assert doc["entries"]
    assert cli.render_json(doc) == _indent2(doc)


@pytest.mark.parametrize("entries", [
    [],
    [{}],
    [{"x": 1.0}, {}],
    [{"x": math.nan, "y": math.inf, "z": -math.inf, "s": "é\n\"", "n": None, "b": True, "i": -3}],
])
def test_render_json_edge_rows(entries):
    doc = {"config": {"command": "x", "entries": [0]}, "entries": entries,
           "findings": ["a\nb"], "summary": {"entries": [[0]]}}
    assert cli.render_json(doc) == _indent2(doc)
