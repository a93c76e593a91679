"""Shared fixtures: a standard grid."""

from __future__ import annotations

import pytest

from polycm import log_grid


@pytest.fixture(scope="session")
def small_log_grid() -> list[float]:
    return log_grid(0.05, 100.0, 25)
