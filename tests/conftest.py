"""Shared fixtures: the default precision config and a standard grid."""

from __future__ import annotations

import pytest

from polycm import DEFAULT_PRECISION, PrecisionConfig, log_grid


@pytest.fixture(scope="session")
def cfg() -> PrecisionConfig:
    return DEFAULT_PRECISION


@pytest.fixture(scope="session")
def small_log_grid() -> list[float]:
    return log_grid(0.05, 100.0, 25)
