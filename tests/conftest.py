"""Shared fixtures (a standard grid) and the Hypothesis profiles.

tier1, the default, draws the same examples on every run and keeps no
example database, so a test's verdict does not depend on the run or on the
tree's history.  explore draws 50 times each test's max_examples from a
random seed and prints each failing example; select it with
HYPOTHESIS_PROFILE=explore.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from polycm import log_grid

EXPLORE_FACTOR = 50

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def pytest_collection_modifyitems(items) -> None:
    """Under explore, scale each property test's own max_examples: a
    profile's max_examples yields to the one each test's @settings gives."""
    if settings.get_current_profile_name() != "explore":
        return
    for test in {id(i.obj): i.obj for i in items
                 if hasattr(getattr(i, "obj", None), "hypothesis")}.values():
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=EXPLORE_FACTOR * own.max_examples)


@pytest.fixture(scope="session")
def small_log_grid() -> list[float]:
    return log_grid(0.05, 100.0, 25)
