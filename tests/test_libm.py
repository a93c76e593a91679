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

math.exp and math.expm1: E(t) = e^-t/(-expm1(-t)) in polycm.kernels charges
3 ulp on the premise that each call is within one ulp.

pow: polygamma's series charges the explicit terms (x + k)^-(n+1), the tail
scale y^-n and the pair powers r^p one ulp each for pow, checked against
exact rationals at that call pattern.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from polycm import log_grid
from polycm.cli import build_parser
from polycm.polygamma import ORDER_CAP, _order_constants

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


def test_exp_and_expm1_are_within_one_ulp():
    rng = random.Random(20090519)
    lo, hi = math.log(1e-300), math.log(745.0)
    ts = [math.exp(rng.uniform(lo, hi)) for _ in range(4_000)]
    # the ends, tanh_kernel's 0.05 switch, ln 2, and where exp(-t) turns subnormal
    edges = (1e-300, 2.0**-53, 0.05, math.log(2.0), 1.0, 708.3964185322641, 745.0)
    ts += [p for c in edges for p in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
    with mpmath.workdps(50):
        for t in ts:
            for fn, ref in ((math.exp, mpmath.exp), (math.expm1, mpmath.expm1)):
                computed = fn(-t)
                ulps = abs(mpf(computed) - ref(-mpf(t))) / mpf(math.ulp(computed))
                assert ulps <= 1, (fn.__name__, t, computed, ulps)


def test_pow_is_within_one_ulp_at_the_series_call_pattern():
    rng = random.Random(20090520)
    lo, hi = math.log(1e-3), math.log(1e3)
    for _ in range(3_000):
        n = rng.randint(0, ORDER_CAP)
        x = math.exp(rng.uniform(lo, hi))
        y_min = _order_constants(n)[-3]
        K = max(0, math.ceil(y_min - x))
        calls = []
        if K:
            base = x + rng.randrange(K)
            calls.append((base, -(n + 1)))
        y = x + K
        calls.append((y, -n))
        inv_y = 1.0 / y
        calls.append((inv_y * inv_y, rng.randint(1, 8)))
        for base, e in calls:
            try:
                computed = base ** float(e)
            except OverflowError:
                continue  # the series refuses it as a CapabilityError
            if computed < sys.float_info.min:
                continue  # so does a subnormal y^-n
            ulps = abs(Fraction(computed) - Fraction(base) ** e) / Fraction(math.ulp(computed))
            assert ulps <= 1, (base, e, computed, ulps)
