#!/usr/bin/env python3
"""Benchmark for polycm: closed-loop workloads driven through its public API.

    python3 bench/run.py --workload cm_sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Workloads (one item at a time, each item waits for the previous one):

  cm_sweep      cm_check through order 8 on 200 log-spaced points in
                [0.01, 100] for the 25 completely monotonic members (1,2) and
                m <= 6, n in {1,3,5,7}; every sweep draws a new seeded grid.
  witness_scan  classify(m, n) for 1 <= m, n <= 6; every matrix draws a
                seeded search window and CM grid.
  cli_calls     `python -m polycm.cli <subcommand> --format json` in a fresh
                interpreter per item, cycling through the five subcommands.
  all           each workload in a child process of its own.

A run attempts ceil(--seconds / nominal round time) whole rounds, the same
operations in every run; the nominal round times were measured on the
reference machine, so a run measures about --seconds there.  --trace 0
reports the end-to-end metrics; --trace 1 puts spans around the calls into
each polycm layer and reports the per-layer metrics.  Outputs are checked
after the timed phase against mpmath, exact rationals and the paper's
trichotomy (see oracle.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Result and span
files go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

import oracle
from oracle import Claim
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("cm_sweep", "witness_scan", "cli_calls")
SETUP_IMPORTS = 5          # timed fresh-interpreter imports, after one discarded
PROFILE_IMPORTS = 3        # -X importtime children in a traced run
DEADLINE_S = 170           # the whole run, set-up and checks included
CM_ORDER, CM_POINTS = 8, 200
CM_MEMBERS = ((1, 2),) + tuple((m, n) for m in range(1, 7) for n in (1, 3, 5, 7))
MATRIX = tuple((m, n) for m in range(1, 7) for n in range(1, 7))
KERNEL_KINDS = ("omega", "tanh", "kappa", "h")
# Nominal seconds of one round on the reference machine (see README.md),
# untraced and traced.  A run attempts ceil(seconds / nominal) whole rounds,
# the same operations in every run, so that it measures about --seconds
# there while counts, memory and the failed share do not depend on how fast
# the machine happened to be.
ROUND_S = {"cm_sweep": 4.0, "witness_scan": 0.4, "cli_calls": 5.0}
TRACE_ROUND_S = {"cm_sweep": 8.0, "witness_scan": 1.0, "cli_calls": 6.0}

E2E_UNITS = {
    "setup_s": "s",
    "results_per_s": "1/s",
    "item_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "bound_rel_p50": "ratio",
}
LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "evaluation.for_magnitude_per_result": "count",
    "polygamma.calls_per_result": "count",
    "polygamma.distinct_per_call": "ratio",
    "polygamma.self_us_per_call": "us",
    "polygamma.distinct_args": "count",
    "cm_engine.assembly_us_per_result": "us",
    "cm_engine.certified_ratio": "ratio",
    "classifier.probes_per_witness": "count",
    "classifier.search_ms_per_member": "ms",
    "classifier.cm_check_ms_per_member": "ms",
    "inequalities.suite_ms": "ms",
    "kernels.report_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.render_ms": "ms",
}
PSI_SPANS = ("polygamma.polygamma", "polygamma.digamma")
WITNESS_SPANS = ("classifier.find_sign_change", "classifier.find_nonmonotonic")
PROBE_SPANS = ("cm_engine.f_value", "cm_engine.f_derivative")


class RunTimeout(BaseException):
    """The run overstayed DEADLINE_S; raised from SIGALRM."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {DEADLINE_S} s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_polycm():
    """Import polycm from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import polycm

    if not Path(polycm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: polycm imported from {polycm.__file__}, not from {SRC}")
    return polycm


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def jittered_log_grid(rng: random.Random, lo: float, hi: float, count: int) -> tuple[float, ...]:
    """count log-spaced points inside [lo, hi), the whole grid rescaled by a
    seeded fraction of one step, so no two draws share a point."""
    la, step = math.log(lo), (math.log(hi) - math.log(lo)) / count
    u = rng.random()
    return tuple(math.exp(la + step * (i + u)) for i in range(count))


# ---------------------------------------------------------------------------
# Children: fresh interpreters for set-up, import profiles and CLI items
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import polycm; "
    "print(repr(time.perf_counter() - t))"
)


def fresh_import_s() -> float:
    """Seconds to import polycm in a fresh interpreter, timed inside it."""
    r = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(r.stdout)


def import_profile() -> tuple[float, float]:
    """(polycm, outermost scipy imports) cumulative seconds from -X importtime."""
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import polycm"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    rows = []
    for line in r.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        rows.append((len(field) - len(field.lstrip()), int(parts[1]), field.strip()))
    total = scipy = 0
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):  # parents come after children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "polycm":
            total = cumulative
        top = name.split(".")[0]
        if top == "scipy" and all(a.split(".")[0] != "scipy" for _, a in ancestors):
            scipy += cumulative
        ancestors.append((depth, name))
    return total * 1e-6, scipy * 1e-6


class Child:
    """One finished child process, with its exit code, output, wall time
    and peak memory.  The benchmark reaps it with os.wait4 to read its own
    rusage, so stderr goes to a file rather than a second pipe that could
    fill while stdout is read."""

    def __init__(self, argv: list[str]) -> None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / "child.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
            try:
                with proc.stdout:
                    self.stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Record:
    """What the benchmark keeps of one item's output: its result count, the
    claims checked after the timed phase, and layer counts."""

    __slots__ = ("results", "claims", "entries", "certified", "startup_s")

    def __init__(self, results: int) -> None:
        self.results = results
        self.claims: list[Claim] = []
        self.entries = self.certified = 0
        self.startup_s: float | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.oracle = oracle.Oracle()
        self.sample_rng = random.Random(f"{self.name}/{seed}/samples")
        self.rel = array("d")   # abs_error / |value| of every certified value

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def add_rel(self, v: float, err: float) -> None:
        if v:
            self.rel.append(err / abs(v))

    def load(self) -> None: ...
    def warmup(self) -> None: ...
    def make_round(self, r: int) -> list: ...
    def call(self, item): ...
    def record(self, item, out) -> Record: ...
    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def extra_records(self, rounds: list[list]) -> list[Record]:
        """Checks that need calls beyond the timed items."""
        return []

    # -- claims shared by the in-process and CLI forms -------------------------

    def cm_entry_claims(self, rec: Record, label: str, m: int, n: int,
                        rows: list[tuple[int, float, float, float, str]], sample: int) -> None:
        """rows: (order, x, signed value, abs_error, status).  No entry may be
        certified negative; sampled entries must match the Leibniz sum."""
        negative = 0
        for order, x, v, err, status in rows:
            self.add_rel(v, err)
            negative += status == "violation" or v < -err
            rec.certified += status == "positive"
        rec.entries += len(rows)
        rec.claims.append(oracle.expect(f"{label}: certified-negative entries", negative, 0, 1))
        for order, x, v, err, _ in self.sample_rng.sample(rows, min(sample, len(rows))):
            truth = (lambda m=m, n=n, l=order, x=x: self.oracle.signed_derivative(m, n, l, x))
            rec.claims.append(oracle.value(f"{label}: (-1)^{order} f^({order})({x!r})", v, err, truth))

    def witness_claims(self, rec: Record, m: int, n: int, kind: str, order: int,
                       x_pos: float, v_pos: float, e_pos: float,
                       x_neg: float, v_neg: float, e_neg: float, sampled: bool) -> None:
        """A witness pair: polycm's own certificate, then mpmath's signs and values."""
        label = f"f[{m},{n}] {kind} witness"
        self.add_rel(v_pos, e_pos)
        self.add_rel(v_neg, e_neg)
        rec.claims.append(oracle.expect(f"{label}: certified signs",
                                        v_pos - e_pos > 0 and v_neg + e_neg < 0, True, False))
        if sampled:
            at = (lambda x, m=m, n=n, l=order: self.oracle.f_derivative(m, n, l, x))
            rec.claims.append(oracle.witness(label, at, x_pos, x_neg))
            rec.claims.append(oracle.value(f"{label} at {x_pos!r}", v_pos, e_pos, lambda: at(x_pos)))
            rec.claims.append(oracle.value(f"{label} at {x_neg!r}", v_neg, e_neg, lambda: at(x_neg)))


class CmSweep(Workload):
    """cm_check through order 8 for the 25 CM members; a sweep is one round,
    its members share one grid, and every sweep draws a new grid."""

    name = "cm_sweep"

    def load(self) -> None:
        from polycm import FamilyIndex, cm_check

        self.FamilyIndex, self.cm_check = FamilyIndex, cm_check

    def make_round(self, r: int) -> list:
        grid = jittered_log_grid(self.rng(r), 0.01, 100.0, CM_POINTS)
        return [(m, n, grid) for m, n in CM_MEMBERS]

    def warmup(self) -> None:
        grid = jittered_log_grid(self.rng(-1), 0.01, 100.0, CM_POINTS)
        for m, n in ((1, 2), (6, 7)):   # every polygamma order the sweep uses
            self.call((m, n, grid))

    def call(self, item):
        m, n, grid = item
        return self.cm_check(self.FamilyIndex(m, n), CM_ORDER, grid)

    def record(self, item, report) -> Record:
        m, n, grid = item
        label = f"f[{m},{n}]"
        rec = Record(len(report.entries))
        rec.claims.append(oracle.expect(f"{label}: entries", len(report.entries),
                                        (CM_ORDER + 1) * len(grid), -1))
        rec.claims.append(oracle.expect(f"{label}: CM verdict", report.verdict == "violation", False, True))
        rows = [(e.order, e.x, e.signed_value.value, e.signed_value.abs_error, e.status)
                for e in report.entries]
        self.cm_entry_claims(rec, label, m, n, rows, sample=1)
        return rec


class WitnessScan(Workload):
    """classify over the 6x6 matrix; a matrix is one round with its own
    seeded search window and CM grid."""

    name = "witness_scan"

    def load(self) -> None:
        from polycm import SearchParams, classify

        self.SearchParams, self.classify = SearchParams, classify

    def make_round(self, r: int) -> list:
        rng = self.rng(r)
        x_min = 1e-3 * 2.0 ** rng.uniform(-0.5, 0.5)
        x_max = 1e3 * 2.0 ** rng.uniform(-0.5, 0.5)
        grid = jittered_log_grid(rng, 0.01, 100.0, 40)
        cm = [mn for mn in MATRIX if oracle.trichotomy(*mn) != oracle.SIGN_CHANGING]
        sc = [mn for mn in MATRIX if oracle.trichotomy(*mn) == oracle.SIGN_CHANGING]
        sampled = {rng.choice(cm), *rng.sample(sc, 2)}
        return [(m, n, grid, x_min, x_max, (m, n) in sampled) for m, n in MATRIX]

    def warmup(self) -> None:
        for m, n, grid, x_min, x_max, _ in self.make_round(-1):
            self.call((m, n, grid, x_min, x_max, False))

    def call(self, item):
        m, n, grid, x_min, x_max, _ = item
        return self.classify(m, n, cm_grid=grid, search=self.SearchParams(x_min=x_min, x_max=x_max))

    def record(self, item, entry) -> Record:
        m, n, grid, _, _, sampled = item
        rec = Record(1)
        rec.claims.append(oracle.verdict(m, n, entry.verdict))
        label = f"f[{m},{n}]"
        if oracle.trichotomy(m, n) != oracle.SIGN_CHANGING:
            rep = entry.cm_report
            rec.claims.append(oracle.expect(f"{label}: CM report", rep is not None, True, False))
            if rep is not None:
                rec.claims.append(oracle.expect(f"{label}: CM verdict", rep.verdict == "violation", False, True))
                rows = [(e.order, e.x, e.signed_value.value, e.signed_value.abs_error, e.status)
                        for e in rep.entries]
                self.cm_entry_claims(rec, label, m, n, rows, sample=1 if sampled else 0)
            return rec
        pairs = (("sign", 0, entry.sign_witness), ("monotonicity", 1, entry.monotonicity_witness))
        rec.claims.append(oracle.expect(f"{label}: witnesses",
                                        all(w is not None for _, _, w in pairs), True, False))
        for kind, order, w in pairs:
            if w is not None:
                self.witness_claims(rec, m, n, kind, order,
                                    w.x_positive, w.positive.value, w.positive.abs_error,
                                    w.x_negative, w.negative.value, w.negative.abs_error, sampled)
        return rec


class CliCalls(Workload):
    """One `python -m polycm.cli` child per item; a round is one call of
    each subcommand with its default grid.  Rounds differ only in the kernel
    kind, so every round returns the same mix of certified values."""

    name = "cli_calls"

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        super().__init__(seed, tracer)
        rng = self.rng(-2)
        self.h_power = rng.randrange(3)
        self.bounds_mn = (rng.randint(1, 4), rng.randint(1, 4))
        self.stdout_of: dict[tuple, bytes] = {}   # first stdout of each argv
        self.child_rss: list[float] = []

    def load(self) -> None:
        if self.tracer is not None:
            from polycm import cli

            self.cli = cli

    def make_round(self, r: int) -> list:
        kind = KERNEL_KINDS[r % len(KERNEL_KINDS)]
        kernel = ("--kernel", kind) + (("--k", str(self.h_power)) if kind == "h" else ())
        bm, bn = self.bounds_mn
        return [
            ("classify",),
            ("check-cm", "--m", "1", "--n", "2"),
            ("kernels", *kernel),
            ("inequalities",),
            ("bounds", "--m", str(bm), "--n", str(bn)),
        ]

    def argv(self, item) -> list[str]:
        return [sys.executable, "-m", "polycm.cli", *item, "--format", "json"]

    def warmup(self) -> None:
        Child(self.argv(("kernels", "--kernel", "kappa")))

    def call(self, item):
        child = Child(self.argv(item))
        if self.tracer is None:
            return child, None
        # the same call in-process, with cold caches like the child's
        for mod in [m for k, m in sys.modules.items() if k.startswith("polycm")]:
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        self.tracer.forget()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.tracer.call("cli.main", self.cli.main, [*item, "--format", "json"])
        main_s = time.perf_counter() - t0
        return child, (code, buf.getvalue().encode(), main_s)

    def peak_rss_mb(self) -> float:
        return max(self.child_rss, default=0.0)

    def extra_records(self, rounds: list[list]) -> list[Record]:
        if len(rounds) > 1 or not self.stdout_of:
            return []
        # a single round repeats no argv: repeat one so that stdout is compared
        item = rounds[0][1]
        rec = Record(0)
        rec.claims.append(oracle.expect(f"{' '.join(item)}: repeated stdout identical",
                                        Child(self.argv(item)).stdout == self.stdout_of.get(item), True, False))
        return [rec]

    def record(self, item, out) -> Record:
        child, inproc = out
        self.child_rss.append(child.rss_mb)
        rec = Record(1)
        label = " ".join(item)
        if child.code != 0:
            print(f"bench: {label} exited {child.code}: {child.stderr.strip()[:500]}", file=sys.stderr)
        rec.claims.append(oracle.expect(f"{label}: exit code", child.code, 0, 2))
        try:
            doc = json.loads(child.stdout)
        except ValueError:
            rec.claims.append(oracle.expect(f"{label}: JSON output", False, True, False))
            return rec
        first = self.stdout_of.setdefault(item, child.stdout)
        rec.claims.append(oracle.expect(f"{label}: stdout identical to its first call",
                                        child.stdout == first, True, False))
        if inproc is not None:
            code, stdout, main_s = inproc
            rec.startup_s = child.wall_s - main_s
            rec.claims.append(oracle.expect(f"{label}: in-process stdout identical",
                                            (code, stdout) == (child.code, child.stdout), True, False))
        getattr(self, "_" + item[0].replace("-", "_"))(rec, item, doc)
        return rec

    def _classify(self, rec: Record, item, doc) -> None:
        rows = doc["entries"]
        sc = [i for i, e in enumerate(rows) if oracle.trichotomy(e["m"], e["n"]) == oracle.SIGN_CHANGING]
        sampled = set(self.sample_rng.sample(sc, min(2, len(sc))))
        rec.claims.append(oracle.expect("classify: members", len(rows), 36, 35))
        for i, e in enumerate(rows):
            m, n = e["m"], e["n"]
            rec.claims.append(oracle.verdict(m, n, e["verdict"]))
            if i not in sc:
                rec.claims.append(oracle.expect(f"classify f[{m},{n}]: CM verdict",
                                                e["cm_verdict"] == "violation", False, True))
                continue
            self.witness_claims(rec, m, n, "sign", 0,
                                e["sign_x_positive"], e["sign_value_positive"], e["sign_error_positive"],
                                e["sign_x_negative"], e["sign_value_negative"], e["sign_error_negative"],
                                i in sampled)
            self.witness_claims(rec, m, n, "monotonicity", 1,
                                e["mono_x_up"], e["mono_value_up"], e["mono_error_up"],
                                e["mono_x_down"], e["mono_value_down"], e["mono_error_down"],
                                i in sampled)

    def _check_cm(self, rec: Record, item, doc) -> None:
        m, n = int(item[2]), int(item[4])
        label = f"check-cm f[{m},{n}]"
        rows = [(e["order"], e["x"], e["signed_value"], e["abs_error"], e["status"]) for e in doc["entries"]]
        rec.claims.append(oracle.expect(f"{label}: entries", len(rows), (CM_ORDER + 1) * CM_POINTS, -1))
        rec.claims.append(oracle.expect(f"{label}: verdict",
                                        doc["summary"]["verdict"] == "violation", False, True))
        self.cm_entry_claims(rec, label, m, n, rows, sample=3)

    def _kernels(self, rec: Record, item, doc) -> None:
        kind = item[2]
        k = int(item[4]) if kind == "h" else None
        label = f"kernel {kind}" + (f"[{k}]" if kind == "h" else "")
        want = oracle.kernel_direction(kind, k)
        other = "decreasing" if want == "increasing" else "increasing"
        rec.claims.append(oracle.expect(f"{label}: monotonicity", doc["summary"]["monotonicity"], want, other))
        rows = doc["entries"]
        for e in rows:
            self.add_rel(e["value"], e["abs_error"])
        for e in self.sample_rng.sample(rows, 3):
            t = e["t"]
            rec.claims.append(oracle.value(f"{label}({t!r})", e["value"], e["abs_error"],
                                           lambda t=t: oracle.Oracle.kernel(kind, k, t)))

    def _inequalities(self, rec: Record, item, doc) -> None:
        rows = doc["entries"]
        rec.claims.append(oracle.expect("inequalities: rows", len(rows), 900, 899))
        for e in rows:
            k, x = e["k"], e["x"]
            self.add_rel(e["value"], e["abs_error"])
            rec.claims.append(oracle.expect(f"inequality k={k}, x={x!r}: passed", e["passed"], True, False))
            rec.claims.append(oracle.bracket(k, x, e["value"], e["abs_error"], e["lower"], e["upper"]))
        for e in self.sample_rng.sample(rows, 3):
            k, x = e["k"], e["x"]
            truth = (lambda k=k, x=x: self.oracle.inequality_middle(k, x))
            rec.claims.append(oracle.value(f"psi^({k})({x!r})", e["value"], e["abs_error"], truth))

    def _bounds(self, rec: Record, item, doc) -> None:
        m, n = int(item[2]), int(item[4])
        label = f"bounds f[{m},{2 * n}]"
        rec.claims.append(oracle.expect(f"{label}: derived bounds hold", doc["summary"]["derived_ok"], True, False))
        rows = doc["entries"]
        for e in rows:
            self.add_rel(e["f_prime"], e["abs_error"])
        for e in self.sample_rng.sample(rows, 3):
            x = e["x"]
            truth = (lambda x=x: self.oracle.f_derivative(m, 2 * n, 1, x))
            rec.claims.append(oracle.value(f"{label}: f'({x!r})", e["f_prime"], e["abs_error"], truth))


def install_spans(t: Tracer) -> None:
    """Spans around the calls each polycm module makes into the layer below."""
    from polycm import classifier, cli, cm_engine, evaluation, inequalities

    t.patch(cm_engine, "polygamma", keyed=True)
    t.patch(inequalities, "polygamma", keyed=True)
    t.patch(inequalities, "digamma", keyed=True)
    t.patch(evaluation.PrecisionConfig, "for_magnitude")
    t.patch(cm_engine, "f_derivative")
    for name in ("f_value", "f_derivative", "cm_check", "find_sign_change", "find_nonmonotonic"):
        t.patch(classifier, name)
    t.patch(cli, "bounds_suite")
    t.patch(cli, "kernel_report")
    for table in (cli._COMMANDS, cli._RENDERERS):   # the handler and renderer dispatch tables
        for key in list(table):
            t.patch(table, key)


WORKLOAD_CLASSES = {"cm_sweep": CmSweep, "witness_scan": WitnessScan, "cli_calls": CliCalls}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    wl = WORKLOAD_CLASSES[workload](seed, tracer)
    nominal = (TRACE_ROUND_S if trace else ROUND_S)[workload]
    n_rounds = math.ceil(seconds / nominal)

    # set-up: fresh-interpreter import (median after one discarded) + inputs
    fresh_import_s()
    if trace:
        profiles = [import_profile() for _ in range(PROFILE_IMPORTS)]
        import_total = statistics.median(p[0] for p in profiles)
        import_scipy = statistics.median(p[1] for p in profiles)
    else:
        imports = [fresh_import_s() for _ in range(SETUP_IMPORTS)]
    t0 = time.perf_counter()
    rounds = [wl.make_round(r) for r in range(n_rounds)]
    make_inputs_s = time.perf_counter() - t0

    if workload != "cli_calls" or trace:
        load_polycm()
    wl.load()
    wl.warmup()
    if trace:
        install_spans(tracer)

    # timed phase: whole rounds, one item at a time
    attempted = failed = 0
    timed: list[tuple[int, float, Record]] = []   # (round, item seconds, record)
    for r, items in enumerate(rounds):
        for item in items:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.call(item) if tracer is None else tracer.call("bench.item", wl.call, item)
            except Exception:
                failed += 1
                print(f"bench: {workload} item {item!r:.200} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            try:
                rec = wl.record(item, out)
            except Exception:   # an output the benchmark cannot even read
                traceback.print_exc(file=sys.stderr)
                rec = Record(0)
                rec.claims.append(oracle.expect(f"{item!r:.200}: readable output", False, True, False))
            timed.append((r, dt, rec))
    peak_rss_mb = wl.peak_rss_mb()
    if trace:
        tracer.restore()
    timed += [(-1, 0.0, rec) for rec in wl.extra_records(rounds)]

    # checks, outside the timed phase
    correct = True
    problems: list[str] = []
    ok_times: list[float] = []
    round_s = [0.0] * n_rounds
    round_results = [0] * n_rounds
    for r, dt, rec in timed:
        msgs = [m for c in rec.claims for m in c.check()]
        bad_tests = [m for c in rec.claims for m in c.self_test()]
        if bad_tests or msgs:
            correct = False
            problems += bad_tests + msgs
        if r < 0:
            continue
        round_s[r] += dt
        if msgs:
            failed += 1
        else:
            round_results[r] += rec.results
            ok_times.append(dt)
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    rates = [ratio(n, t) for n, t in zip(round_results, round_s)]

    if trace:
        metrics = layer_metrics(wl, tracer, [rec for _, _, rec in timed], import_total, import_scipy)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{workload}-seed{seed}-spans.npz")
        units = LAYER_UNITS
        print(f"{workload} traced: {n_rounds} rounds, {len(tracer.name)} spans, "
              f"results_per_s={statistics.median(rates):.6g} 1/s")
    else:
        metrics = {
            "setup_s": statistics.median(imports) + make_inputs_s,
            "results_per_s": statistics.median(rates),
            "item_ms_p50": statistics.median(ok_times) * 1e3 if ok_times else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "bound_rel_p50": float(np.median(np.array(wl.rel))) if len(wl.rel) else 0.0,
        }
        units = E2E_UNITS
        print(f"{workload}: {n_rounds} rounds in {sum(round_s):.1f} s; results_per_s is the median "
              f"of {n_rounds} round rates, item_ms_p50 of n={len(ok_times)} items, "
              f"bound_rel_p50 of n={len(wl.rel)} values")
    for name, v in metrics.items():
        print(f"{workload} {name} = {v:.6g} {units[name]}")
    print(f"{workload} attempted = {attempted}, failed = {failed}, correct = {correct}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def layer_metrics(wl: Workload, tracer: Tracer, records: list[Record],
                  import_total: float, import_scipy: float) -> dict[str, float]:
    s = tracer.summary()

    def get(names, key) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(s.get(n, {}).get(key, 0) for n in names)

    results = sum(rec.results for rec in records)
    psi_calls = get(PSI_SPANS, "calls")
    commands = [n for n in s if n.startswith("cli.cmd_")]
    renders = [n for n in s if n.startswith("cli.render_")]
    startups = [rec.startup_s for rec in records if rec.startup_s is not None]
    return {
        "import.total_s": import_total,
        "import.scipy_s": import_scipy,
        "evaluation.for_magnitude_per_result": ratio(get("evaluation.for_magnitude", "calls"), results),
        "polygamma.calls_per_result": ratio(psi_calls, results),
        "polygamma.distinct_per_call": ratio(sum(tracer.distinct.get(n, 0) for n in PSI_SPANS), psi_calls),
        "polygamma.self_us_per_call": ratio(get(PSI_SPANS, "self_s") * 1e6, psi_calls),
        "polygamma.distinct_args": float(sum(tracer.distinct.get(n, 0) for n in PSI_SPANS)),
        "cm_engine.assembly_us_per_result": ratio(get("cm_engine.f_derivative", "self_s") * 1e6, results),
        "cm_engine.certified_ratio": ratio(sum(r.certified for r in records), sum(r.entries for r in records)),
        "classifier.probes_per_witness": ratio(tracer.children_of(WITNESS_SPANS, PROBE_SPANS),
                                               get(WITNESS_SPANS, "calls")),
        # one find_sign_change per sign-changing member, one cm_check per CM member
        "classifier.search_ms_per_member": ratio(get(WITNESS_SPANS, "total_s") * 1e3,
                                                 get("classifier.find_sign_change", "calls")),
        "classifier.cm_check_ms_per_member": ratio(get("cm_engine.cm_check", "total_s") * 1e3,
                                                   get("cm_engine.cm_check", "calls")),
        "inequalities.suite_ms": ratio(get("inequalities.bounds_suite", "total_s") * 1e3,
                                       get("inequalities.bounds_suite", "calls")),
        "kernels.report_ms": ratio(get("kernels.kernel_report", "total_s") * 1e3,
                                   get("kernels.kernel_report", "calls")),
        "cli.startup_ms": statistics.fmean(startups) * 1e3 if startups else 0.0,
        "cli.compute_ms": ratio(get(commands, "total_s") * 1e3, get(commands, "calls")),
        "cli.render_ms": ratio(get(renders, "total_s") * 1e3, get(renders, "calls")),
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in a child process of its own, so that each reports
    its own peak memory; the result's metrics are keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 10)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "polycm" / "__init__.py").is_file():
        print(f"bench: no polycm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(DEADLINE_S)
        try:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        except RunTimeout as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 3
        finally:
            signal.alarm(0)
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
