"""Batch front door: suites over the f family, kernels, and bound checks.

Subcommands
    classify       trichotomy matrix over 1 <= m <= m_max, 1 <= n <= n_max
    check-cm       complete-monotonicity grid check for one (m, n)
    kernels        kernel monotonicity/limit/range report
    inequalities   digamma/polygamma double-bound suite
    bounds         printed vs derived bounding-polynomial audit for f'

Every numeric value in JSON output is paired with its abs_error; CSV
flattens to value/error column pairs.  Reports are deterministic: identical
config yields byte-identical output.  No subcommand takes an error budget:
each bound is what the one closed series behind each value guarantees.

Exit codes: 2 for a usage error (including an --out path that cannot be
written), 3 for a numeric capability error (a polygamma order above the
cap of 120, a computed magnitude that leaves the double range, or a witness
search that certifies no point of a sign).  Otherwise each handler returns
its report's refuted and undecided, which evaluation.decide read from the
certified signs (classify merges those of its CM reports), and main alone
picks the code: 1 if anything was refuted, else 3 if any point is
undecided (named on stderr), else 0.  check-cm and classify name the x of
every undecided CM entry: check-cm --m 1 --n 2 --grid-max 5e6 and classify
--m-max 1 --n-max 2 --grid-min 3e6 --grid-max 1e8 --grid-count 5 both
exit 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Sequence

from . import checks
from .classifier import (
    BoundAuditReport,
    ClassificationEntry,
    bound_check,
    classify,
)
from .cm_engine import CMReport, FamilyIndex, cm_check
from .errors import CapabilityError, DomainError
from .evaluation import linear_grid, log_grid
from .inequalities import BoundsSuiteReport, bounds_suite
from .kernels import KernelId, kernel_report


def _add_common(p: argparse.ArgumentParser, gmin: float, gmax: float, gcount: int) -> None:
    p.add_argument("--grid-min", type=float, default=gmin)
    p.add_argument("--grid-max", type=float, default=gmax)
    p.add_argument("--grid-count", type=int, default=gcount)
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json",
                   dest="fmt")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycm",
        description="verification suites for [psi^(m)]^2 + psi^(n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy matrix with evidence")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--orders", type=int, default=4,
                   help="max derivative order for CM evidence")
    _add_common(p, 0.01, 100.0, 40)

    p = sub.add_parser("check-cm", help="CM grid check for one index")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--orders", type=int, default=8)
    _add_common(p, 0.01, 100.0, 200)

    p = sub.add_parser("kernels", help="kernel monotonicity/limits/range")
    p.add_argument("--kernel", choices=("h", "omega", "tanh", "kappa"),
                   default="omega")
    p.add_argument("--k", type=int, default=None,
                   help="power for the h kernel (default 0); no other kernel takes one")
    _add_common(p, 1e-6, 50.0, 64)

    p = sub.add_parser("inequalities", help="double-bound suite")
    p.add_argument("--k-max", type=int, default=8)
    _add_common(p, 0.05, 100.0, 100)

    p = sub.add_parser("bounds", help="bounding-polynomial audit for f'")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1,
                   help="half of the (even) second family index")
    _add_common(p, 0.05, 100.0, 50)

    return parser


# ---------------------------------------------------------------------------
# Command implementations: each takes the parsed arguments and returns its
# document, its report's refuted, and the label, variable and points of its
# report's undecided
# ---------------------------------------------------------------------------

Outcome = tuple[dict, bool, tuple[str, str, Sequence[float]]]


def _grid(args: argparse.Namespace) -> list[float]:
    lo = checks.positive_real("--grid-min", args.grid_min)
    hi = checks.finite("--grid-max", args.grid_max)
    count = checks.integer("--grid-count", args.grid_count, 2)
    if not lo < hi:
        raise DomainError(f"--grid-min must be below --grid-max, got {lo!r} and {hi!r}")
    make = linear_grid if args.grid_scale == "linear" else log_grid
    return make(lo, hi, count)


def _config_doc(args: argparse.Namespace, **extra) -> dict:
    return {
        "command": args.command,
        "grid_min": args.grid_min,
        "grid_max": args.grid_max,
        "grid_count": args.grid_count,
        "grid_scale": args.grid_scale,
        **extra,
    }


def _classification_row(entry: ClassificationEntry) -> dict:
    row: dict = {"m": entry.index.m, "n": entry.index.n, "verdict": entry.verdict}
    rep = entry.cm_report
    cm = (None,) * 3 if rep is None else (
        rep.verdict,
        sum(e.status == "inconclusive" for e in rep.entries),
        min(e.signed_value.value - e.signed_value.abs_error for e in rep.entries),
    )
    row.update(zip(("cm_verdict", "cm_inconclusive_points", "cm_min_margin"), cm))
    for prefix, w, sides in (
        ("sign", entry.sign_witness, ("positive", "negative")),
        ("mono", entry.monotonicity_witness, ("up", "down")),
    ):
        ends = ((None,) * 3,) * 2 if w is None else (
            (w.x_positive, w.positive.value, w.positive.abs_error),
            (w.x_negative, w.negative.value, w.negative.abs_error),
        )
        for side, (x, value, error) in zip(sides, ends):
            row[f"{prefix}_x_{side}"] = x
            row[f"{prefix}_value_{side}"] = value
            row[f"{prefix}_error_{side}"] = error
    return row


def cmd_classify(args: argparse.Namespace) -> Outcome:
    m_max = checks.integer("--m-max", args.m_max, 1)
    n_max = checks.integer("--n-max", args.n_max, 1)
    grid = _grid(args)
    orders = checks.integer("--orders", args.orders, 0)
    entries = []
    counts = {"CM_trivial": 0, "CM_nontrivial": 0, "sign_changing_nonmonotonic": 0}
    refuted, undecided = False, set()
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            entry = classify(m, n, cm_max_order=orders, cm_grid=grid)
            counts[entry.verdict] += 1
            entries.append(_classification_row(entry))
            rep = entry.cm_report
            if rep is not None:
                refuted |= rep.refuted
                undecided.update(rep.undecided)
    doc = {
        "config": _config_doc(args, m_max=m_max, n_max=n_max, orders=orders),
        "entries": entries,
        "findings": [],
        "summary": counts,
    }
    return doc, refuted, ("CM entries", "x", sorted(undecided))


def cmd_check_cm(args: argparse.Namespace) -> Outcome:
    idx = FamilyIndex(checks.integer("--m", args.m, 1), checks.integer("--n", args.n, 1))
    grid = _grid(args)
    report: CMReport = cm_check(idx, checks.integer("--orders", args.orders, 0), grid)
    entries = [
        {
            "order": e.order,
            "x": e.x,
            "signed_value": e.signed_value.value,
            "abs_error": e.signed_value.abs_error,
            "status": e.status,
        }
        for e in report.entries
    ]
    violations = [e for e in report.entries if e.status == "violation"]
    inconclusive = [e for e in report.entries if e.status == "inconclusive"]
    findings = [
        f"certified violation at order {e.order}, x={e.x:.6g}: "
        f"value {e.signed_value.value:.6e}, error {e.signed_value.abs_error:.3e}"
        for e in violations
    ] + [
        f"inconclusive at order {e.order}, x={e.x:.6g}"
        for e in inconclusive
    ]
    doc = {
        "config": _config_doc(args, m=args.m, n=args.n, orders=args.orders),
        "entries": entries,
        "findings": findings,
        "summary": {
            "verdict": report.verdict,
            "violations": len(violations),
            "inconclusive": len(inconclusive),
            "inconclusive_fraction": len(inconclusive) / max(1, len(report.entries)),
        },
    }
    return doc, report.refuted, ("CM entries", "x", report.undecided)


def cmd_kernels(args: argparse.Namespace) -> Outcome:
    k = 0 if args.k is None and args.kernel == "h" else args.k
    kid = KernelId(args.kernel, k)
    report = kernel_report(kid, _grid(args))
    entries = [
        {"t": t, "value": v.value, "abs_error": v.abs_error}
        for t, v in zip(report.grid, report.values)
    ]
    doc = {
        "config": _config_doc(args, kernel=kid.label()),
        "entries": entries,
        "findings": list(report.diagnostics),
        "summary": {
            "monotonicity": report.monotonicity_verdict,
            "expected_monotonicity": report.expected_monotonicity,
            "limit_checks": [c._asdict() for c in report.limit_checks],
            "range": report.range_description,
            "range_passed": report.range_passed,
            "min_range_margin": report.min_range_margin,
        },
    }
    return doc, report.refuted, ("kernel steps and distances", "t", report.undecided)


def cmd_inequalities(args: argparse.Namespace) -> Outcome:
    grid = _grid(args)
    report: BoundsSuiteReport = bounds_suite(checks.integer("--k-max", args.k_max, 1), grid)
    entries = [
        {
            "k": r.k,
            "x": r.x,
            "lower": r.lower,
            "value": r.middle.value,
            "abs_error": r.middle.abs_error,
            "upper": r.upper,
            "margin_lower": r.margins[0],
            "margin_upper": r.margins[1],
            "passed": r.passed,
        }
        for r in report.results
    ]
    findings = [
        f"margin not cleared at k={r.k}, x={r.x:.6g}: "
        f"margins ({r.margins[0]:.3e}, {r.margins[1]:.3e}), "
        f"error {r.margin_error:.3e}"
        for r in report.failures
    ]
    doc = {
        "config": _config_doc(args, k_max=args.k_max),
        "entries": entries,
        "findings": findings,
        "summary": {
            "checks": len(report.results),
            "failures": len(report.failures),
            "min_lower_margin": report.min_lower_margin,
            "min_upper_margin": report.min_upper_margin,
        },
    }
    return doc, report.refuted, ("inequality margins", "x", report.undecided)


def cmd_bounds(args: argparse.Namespace) -> Outcome:
    m, n = checks.integer("--m", args.m, 1), checks.integer("--n", args.n, 1)
    report: BoundAuditReport = bound_check(m, n, _grid(args))
    entries = []
    for e in report.entries:
        row: dict = {"x": e.x, "f_prime": e.f_prime.value,
                     "abs_error": e.f_prime.abs_error}
        for name, bound in e.bounds.items():
            row[f"{name}_bound"] = bound
            row[f"{name}_margin"] = e.margins[name]
            row[f"{name}_status"] = e.statuses[name]
        entries.append(row)
    doc = {
        "config": _config_doc(args, m=args.m, n=args.n),
        "entries": entries,
        "findings": list(report.findings),
        "summary": {
            "derived_ok": not report.refuted,
            "printed_p_ok": report.printed_p_ok,
            "printed_findings": len(report.findings),
        },
    }
    return doc, report.refuted, ("derived bounds", "x", report.undecided)


_COMMANDS = {
    "classify": cmd_classify,
    "check-cm": cmd_check_cm,
    "kernels": cmd_kernels,
    "inequalities": cmd_inequalities,
    "bounds": cmd_bounds,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


# One flat entries row as indent=2 lays it out inside the document, less its
# braces: indent=None keeps json on its C encoder, which indent=2 does not
_ROW = json.JSONEncoder(sort_keys=True, allow_nan=True, separators=(",\n      ", ": "))
_ENTRIES = '\n  "entries": [\n    0\n  ]'


def render_json(doc: dict) -> str:
    entries = doc["entries"]
    if not entries or not all(entries):
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
    frame = json.dumps({**doc, "entries": [0]}, indent=2, sort_keys=True, allow_nan=True)
    rows = ",\n    ".join(["{\n      " + _ROW.encode(row)[1:-1] + "\n    }" for row in entries])
    return frame.replace(_ENTRIES, '\n  "entries": [\n    ' + rows + "\n  ]", 1) + "\n"


def render_csv(doc: dict) -> str:
    buf = io.StringIO()
    entries = doc["entries"]
    if entries:
        writer = csv.DictWriter(buf, fieldnames=list(entries[0].keys()))
        writer.writeheader()
        for row in entries:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()


def render_text(doc: dict) -> str:
    lines: list[str] = []
    cfg = doc["config"]
    lines.append(" ".join(f"{k}={cfg[k]}" for k in sorted(cfg)))
    entries = doc["entries"]
    if entries:
        keys = list(entries[0].keys())
        widths = {
            k: max(len(k), *(len(_cell(e[k])) for e in entries)) for k in keys
        }
        lines.append("  ".join(k.ljust(widths[k]) for k in keys))
        for e in entries:
            lines.append("  ".join(_cell(e[k]).ljust(widths[k]) for k in keys))
    summary = doc.get("summary")
    if summary:
        lines.append("summary: " + json.dumps(summary, sort_keys=True))
    for finding in doc["findings"]:
        lines.append(f"finding: {finding}")
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, refuted, (what, var, points) = _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"polycm: usage error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"polycm: numeric capability error: {exc}", file=sys.stderr)
        return 3
    rendered = _RENDERERS[args.fmt](doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"polycm: usage error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    if refuted:
        return 1
    if points:
        print(f"polycm: numeric capability limit: {what} inconclusive at {var} = "
              + ", ".join(map(repr, points)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
