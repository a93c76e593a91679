"""Output checks made apart from polycm.

Every truth here comes from mpmath at 50 digits, from exact rationals, or
from the paper's trichotomy written out below; nothing calls into polycm.
A check is a Claim: a function that returns failure messages (none when the
output holds) together with corrupted versions of its arguments that the
function must reject.  Running the corrupted versions is the self-test: a
passing run then shows that its checks can fail.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50

CM_TRIVIAL = "CM_trivial"
CM_NONTRIVIAL = "CM_nontrivial"
SIGN_CHANGING = "sign_changing_nonmonotonic"
VERDICTS = (CM_TRIVIAL, CM_NONTRIVIAL, SIGN_CHANGING)


def trichotomy(m: int, n: int) -> str:
    """f_{1,2} and every f_{m,odd} are completely monotonic; every other
    f_{m,even} changes sign and is not monotonic."""
    if n % 2 == 1:
        return CM_TRIVIAL
    if (m, n) == (1, 2):
        return CM_NONTRIVIAL
    return SIGN_CHANGING


def kernel_direction(kind: str, k: int | None) -> str:
    """Monotonicity read off the kernel definitions: omega and tanh increase,
    kappa and h[k >= 0] decrease, h[k <= -1] increases."""
    if kind in ("omega", "tanh"):
        return "increasing"
    if kind == "kappa" or (kind == "h" and k >= 0):
        return "decreasing"
    return "increasing"


class Oracle:
    """mpmath evaluations, memoised per (order, x) within one run."""

    def __init__(self) -> None:
        self._psi: dict[tuple[int, float], mpmath.mpf] = {}

    def psi(self, k: int, x: float):
        key = (k, x)
        v = self._psi.get(key)
        if v is None:
            v = self._psi[key] = mpmath.psi(k, mpmath.mpf(x))
        return v

    def inequality_middle(self, k: int, x: float):
        """psi(x) for k = 0, |psi^(k)(x)| for k >= 1, as inequality rows report them."""
        v = self.psi(k, x)
        return v if k == 0 else abs(v)

    def f_derivative(self, m: int, n: int, order: int, x: float):
        """Leibniz sum psi^(n+l) + sum_j C(l,j) psi^(m+j) psi^(m+l-j)."""
        s = self.psi(n + order, x)
        for j in range(order + 1):
            s += math.comb(order, j) * self.psi(m + j, x) * self.psi(m + order - j, x)
        return s

    def signed_derivative(self, m: int, n: int, order: int, x: float):
        s = self.f_derivative(m, n, order, x)
        return -s if order % 2 else s

    @staticmethod
    def kernel(kind: str, k: int | None, t: float):
        t = mpmath.mpf(t)
        kap = 1 / (1 - mpmath.exp(-t))
        if kind == "kappa":
            return kap
        if kind == "h":
            return (kap - mpmath.mpf(1) / 2) / t**k
        if kind == "tanh":
            return (t / 2) / mpmath.tanh(t / 2) - 1
        if kind == "omega":
            return -2 * t * mpmath.exp(-t) / (1 - mpmath.exp(-2 * t))
        raise ValueError(f"unknown kernel {kind!r}")


class Claim:
    """One checked property of one output."""

    __slots__ = ("fn", "args", "corrupted")

    def __init__(self, fn, args: tuple, corrupted: list[tuple]) -> None:
        self.fn, self.args, self.corrupted = fn, args, corrupted

    def check(self) -> list[str]:
        return self.fn(*self.args)

    def self_test(self) -> list[str]:
        return [
            f"self-test: {self.fn.__name__}{bad!r} was accepted"
            for bad in self.corrupted
            if not self.fn(*bad)
        ]


def _within(what: str, value: float, abs_error: float, truth) -> list[str]:
    if not (abs_error >= 0.0 and math.isfinite(value) and math.isfinite(abs_error)):
        return [f"{what}: malformed result {value!r} +- {abs_error!r}"]
    miss = abs(mpmath.mpf(value) - truth())
    if miss <= abs_error:
        return []
    return [f"{what}: |{value!r} - truth| = {mpmath.nstr(miss, 5)} exceeds abs_error {abs_error!r}"]


def value(what: str, v: float, abs_error: float, truth) -> Claim:
    """|v - truth()| <= abs_error in 50-digit arithmetic; truth is a thunk.
    Corrupted: v moved by ten times abs_error either way."""
    moved = [(what, v + s * 10.0 * abs_error, abs_error, truth) for s in (1.0, -1.0)]
    return Claim(_within, (what, v, abs_error, truth), moved)


def _equals(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


def expect(what: str, got, want, wrong) -> Claim:
    """got == want; corrupted: got replaced by wrong."""
    return Claim(_equals, (what, got, want), [(what, wrong, want)])


def verdict(m: int, n: int, got: str) -> Claim:
    """The verdict equals the trichotomy; corrupted: each verdict the
    trichotomy does not give."""
    want = trichotomy(m, n)
    return Claim(
        _equals, (f"f[{m},{n}] verdict", got, want),
        [(f"f[{m},{n}] verdict", v, want) for v in VERDICTS if v != want],
    )


def _signs(what: str, truth_at, x_positive: float, x_negative: float) -> list[str]:
    msgs = []
    if not truth_at(x_positive) > 0:
        msgs.append(f"{what}: not positive at x={x_positive!r}")
    if not truth_at(x_negative) < 0:
        msgs.append(f"{what}: not negative at x={x_negative!r}")
    return msgs


def witness(what: str, truth_at, x_positive: float, x_negative: float) -> Claim:
    """mpmath confirms the witnessed signs; corrupted: the two points swapped."""
    return Claim(_signs, (what, truth_at, x_positive, x_negative),
                 [(what, truth_at, x_negative, x_positive)])


def _bracketed(k: int, x: float, v: float, abs_error: float) -> list[str]:
    if k == 0:
        lnx, inv = mpmath.log(mpmath.mpf(x)), 1 / mpmath.mpf(x)
        lo, hi = lnx - inv, lnx - inv / 2
        val, err = mpmath.mpf(v), mpmath.mpf(abs_error)
    else:
        X = Fraction(x)
        base = Fraction(math.factorial(k - 1)) / X**k
        step = Fraction(math.factorial(k)) / X ** (k + 1)
        lo, hi = base + step / 2, base + step
        val, err = Fraction(v), Fraction(abs_error)
    if lo < val - err and val + err < hi:
        return []
    return [f"inequality k={k}, x={x!r}: {v!r} +- {abs_error!r} not strictly inside the bounds"]


def bracket(k: int, x: float, v: float, abs_error: float, lower: float, upper: float) -> Claim:
    """v +- abs_error lies strictly inside the paper's double inequality:
    k >= 1: (k-1)!/x^k + k!/(2x^(k+1)) < |psi^(k)(x)| < (k-1)!/x^k + k!/x^(k+1),
    exact in Fraction; k = 0: ln x - 1/x < psi(x) < ln x - 1/(2x), in 50-digit
    arithmetic since ln x is irrational.  Corrupted: v moved ten times its
    abs_error past the reported lower or upper bound."""
    return Claim(_bracketed, (k, x, v, abs_error), [
        (k, x, lower - 10.0 * abs_error, abs_error),
        (k, x, upper + 10.0 * abs_error, abs_error),
    ])
