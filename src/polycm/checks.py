"""Argument checks shared by every public entry point.

Each check raises DomainError naming the offending argument and returns the
argument in the form the numerics use (float, int or tuple of floats).
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError


def finite(name: str, v) -> float:
    """v as a float; it must be finite."""
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def positive_real(name: str, v) -> float:
    """v as a float; it must be finite and > 0."""
    v = float(v)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a finite positive real, got {v!r}")
    return v


def integer(name: str, v, minimum: float = -math.inf) -> int:
    """v as an int >= minimum.

    Integer types pass (int, numpy integers: whatever defines __index__);
    bool and floats (even integral ones) are rejected, so a stray True or
    2.0 never selects an order or index.
    """
    if isinstance(v, bool):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    try:
        v = operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None
    if v < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {v}")
    return v


def grid(points, min_points: int = 1) -> tuple[float, ...]:
    """points as a tuple of floats: at least min_points, each finite, positive
    and above its predecessor.  The message names the first bad point."""
    pts = tuple(float(t) for t in points)
    if len(pts) < min_points:
        raise DomainError(f"grid needs at least {min_points} point(s), got {len(pts)}")
    for i, t in enumerate(pts):
        if not math.isfinite(t):
            raise DomainError(f"grid point {i} is {t!r}; grid points must be finite")
        if t <= 0.0:
            raise DomainError(f"grid point {i} is {t!r}; grid points must be positive")
        if i and t <= pts[i - 1]:
            raise DomainError(
                f"grid point {i} is {t!r}, not above point {i - 1} ({pts[i - 1]!r}); "
                "grid must be strictly increasing"
            )
    return pts
