"""The libm premises polycm's bounds rest on, held to mpmath.

A bound that charges a library call some ulps assumes the call errs by no
more than that.  The ledger (tests/test_ledger.py) takes these premises as
given; this file checks them on the platform the tests run on.

math.log: the k = 0 margins of the double inequality charge two ulps of
math.log(x), on the premise that it is within one ulp of ln x, which is at
most two ulps of the result when ln x and its double sit on either side of a
power of two.  Checked here against one ulp of the result, the stricter
reading, at seeded draws over every positive finite double and at the
points where the premise is likeliest to break.
"""

from __future__ import annotations

import math
import random
import struct
import sys

import pytest

from polycm import log_grid
from polycm.cli import build_parser

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf


def _edges() -> list[float]:
    around = (1.0, sys.float_info.min, 5e-324, sys.float_info.max, 2.0, 0.5, math.e)
    pts = [p for c in around for p in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
    pts += [2.0**e for e in range(-1074, 1024, 7)]
    return [p for p in pts if 0.0 < p < math.inf]


def _default_grids() -> list[float]:
    pts = []
    for command in ("classify", "check-cm", "kernels", "inequalities", "bounds"):
        a = build_parser().parse_args([command])
        pts += log_grid(a.grid_min, a.grid_max, a.grid_count)
    return pts


def _draws(count: int) -> list[float]:
    """count seeded doubles: half uniform over the bit patterns of the
    positive finite doubles (so log-uniform on [5e-324, 1.8e308], subnormals
    included), half uniform on [0.5, 2], where ln x is smallest."""
    rng = random.Random(20090518)
    top = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]
    xs = [struct.unpack("<d", struct.pack("<q", rng.randint(1, top)))[0] for _ in range(count // 2)]
    xs += [rng.uniform(0.5, 2.0) for _ in range(count - count // 2)]
    return xs


def test_log_is_within_one_ulp():
    xs = _draws(20_000) + _edges() + _default_grids()
    with mpmath.workdps(50):
        for x in xs:
            computed = math.log(x)
            ulps = abs(mpf(computed) - mpmath.log(mpf(x))) / mpf(math.ulp(computed))
            assert ulps <= 1, (x, computed, ulps)
