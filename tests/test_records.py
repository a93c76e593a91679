"""The record contract: every result and configuration object is an
immutable named tuple that keeps its name, fields and repr, and the four
validating records check their inputs however they are built."""

from __future__ import annotations

import math
import pickle

import pytest

import polycm
from polycm import (
    DomainError,
    EvalResult,
    FamilyIndex,
    KernelId,
    KernelReport,
    SearchParams,
    bound_check,
    bounds_suite,
    classify,
    kernel_report,
    log_grid,
    q_printed,
)


@pytest.fixture(scope="module")
def records() -> list[tuple]:
    """One instance of every public record type, nested ones included."""
    grid = log_grid(0.5, 5.0, 4)
    cm = classify(1, 2, cm_max_order=1, cm_grid=grid).cm_report
    entry = classify(2, 2)
    kernels = kernel_report(KernelId("omega"), grid)
    audit = bound_check(1, 1, grid)
    suite = bounds_suite(1, grid)
    return [
        EvalResult(1.5, 1e-16), FamilyIndex(1, 2), KernelId("h", 2),
        SearchParams(), q_printed(1, 1), cm, cm.entries[0], entry, entry.sign_witness,
        kernels, kernels.limit_checks[0], audit, audit.entries[0], suite, suite.results[0],
    ]


def test_every_public_record_type_is_covered(records):
    covered = {type(r).__name__ for r in records}
    exported = {name for name in polycm.__all__
                if isinstance(getattr(polycm, name), type)
                and issubclass(getattr(polycm, name), tuple)}
    nested = {"CMEntry", "LimitCheck", "BoundEntry", "BoundAuditReport"}
    assert exported | nested == covered


def test_records_are_immutable(records):
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_unpack_and_compare_as_tuples():
    value, error = EvalResult(1.5, 1e-16)
    assert (value, error) == (1.5, 1e-16)
    assert EvalResult(1.5, 1e-16) == (1.5, 1e-16)
    assert FamilyIndex(2, 4) == (2, 4) and hash(FamilyIndex(2, 4)) == hash((2, 4))
    assert repr(EvalResult(1.5, 0.0)) == "EvalResult(value=1.5, abs_error=0.0)"
    assert repr(KernelId("omega")) == "KernelId(kind='omega', k=None)"
    assert KernelReport._field_defaults == {"diagnostics": ()}


def test_eval_result_refuses_ordering():
    a, b = EvalResult(1.0, 0.1), EvalResult(2.0, 0.1)
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b,
                    lambda: a < 2.0, lambda: 2.0 >= a, lambda: sorted([b, a]),
                    lambda: a < (2.0, 0.1), lambda: (2.0, 0.1) > a, lambda: max(a, b)):
        with pytest.raises(TypeError):
            compare()


# each constructor: (positional args, keyword args) that must be rejected
_REJECTED = [
    (EvalResult, (math.inf, 0.0), {"value": math.nan, "abs_error": 0.0}),
    (EvalResult, (1.0, -1e-18), {"value": 1.0, "abs_error": math.inf}),
    (EvalResult, (-math.inf, 0.0), {"value": 1.0, "abs_error": math.nan}),
    (EvalResult, (math.nan, 1.0), {"value": 1.0, "abs_error": -math.inf}),
    (FamilyIndex, (0, 2), {"m": 1, "n": True}),
    (FamilyIndex, (1, 2.0), {"m": 1.0, "n": 2}),
    (KernelId, ("sinh",), {"kind": "sinh"}),
    (KernelId, ("h",), {"kind": "h", "k": 1.0}),
    (KernelId, ("omega", 1), {"kind": "tanh", "k": 0}),
    (SearchParams, (0.0,), {"x_min": 10.0, "x_max": 1.0}),
    (SearchParams, (1e-3, math.inf), {"x_max": 2.0**-129}),
]


@pytest.mark.parametrize("cls, args, kwargs", _REJECTED,
                         ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_validating_constructors_reject_bad_inputs(cls, args, kwargs):
    with pytest.raises(DomainError):
        cls(*args)
    with pytest.raises(DomainError):
        cls(**kwargs)


def test_validating_constructors_normalise_and_default():
    assert SearchParams() == (2.0**-128, 2.0**128) and SearchParams(x_max=5.0) == (2.0**-128, 5.0)
    assert KernelId("omega").k is None and KernelId(kind="h", k=-1) == ("h", -1)

    class Index:  # any __index__ type is an integer, and is stored as int
        def __index__(self) -> int:
            return 3

    idx = FamilyIndex(Index(), n=Index())
    assert idx == (3, 3) and type(idx.m) is int and type(idx.n) is int
    assert type(KernelId("h", Index()).k) is int


def test_pickle_round_trip_revalidates():
    for record in (EvalResult(1.5, 1e-16), FamilyIndex(1, 2),
                   KernelId("h", 2), SearchParams(0.1, 10.0)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
    # _make skips validation; unpickling runs it again
    for bad in (EvalResult._make((math.inf, 0.0)),
                FamilyIndex._make((0, 2)), KernelId._make(("sinh", None)),
                SearchParams._make((2.0, 1.0))):
        data = pickle.dumps(bad)
        with pytest.raises(DomainError):
            pickle.loads(data)
