"""The benchmark's hold on polycm: what bench/run.py imports, patches and
calls must still exist.

A traced benchmark run patches polycm functions and classes by name
(install_spans) and drives the in-process workloads through the public API.
A renamed or deleted name there fails the traced run before its first
round; this test fails the same way, in seconds, without a run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # bench/ alone imports numpy
pytest.importorskip("mpmath")

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    sys.path.insert(0, str(BENCH))  # run.py imports its siblings oracle and tracing
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["cm_sweep", "witness_scan"])
def test_traced_workload_runs_one_item(bench_run, workload):
    tracer = bench_run.Tracer()
    bench_run.install_spans(tracer)
    try:
        wl = bench_run.WORKLOAD_CLASSES[workload](0, tracer)
        wl.load()
        item = wl.make_round(0)[0]
        rec = wl.record(item, wl.call(item))
    finally:
        tracer.restore()
    assert rec.results > 0 and rec.claims
    assert tracer.names, "no span was recorded"
