"""Error ledger: the eps each rounding charge grants, derived in exact rationals.

A bound's rounding charge is an argument about how many roundings each term
suffers.  This file writes that argument out term by term and checks it
against the shipped constants over the routine's whole domain, so a charge
cut below its need fails here whatever the sampled tests happen to draw.

Premises, in eps = 2^-52 relative to the exact result of one operation:
+, -, *, /, int / int and math.fsum round once to nearest (1/2 each); pow
and log err by at most one ulp (1 each).  A base rounded by d relative moves
b^a by |a| d relative and ln b by d absolute.  The per-term needs are first
order in eps; test_second_order_terms_fit_the_slack bounds what that leaves
out.

Routines covered so far: polygamma's series at n = 0 (digamma), where
y = x + K >= 24, inv_y = 1/y, r = inv_y^2 and the tail's y^-0 is exactly 1;
and at every order n = 1..ORDER_CAP, each term of the explicit sum and the
tail, with the lemma that lets the leading term pay for pairs 4..7.
"""

from __future__ import annotations

import importlib
import math
from fractions import Fraction

psi_mod = importlib.import_module("polycm.polygamma")

EPS = Fraction(1, 2**52)
HALF = Fraction(1, 2)
Y_MIN = 24  # the shift makes y >= 24 at n = 0


def bernoulli(two_p: int) -> Fraction:
    return Fraction(*psi_mod._BERNOULLI[two_p])


def coeff(n: int, p: int) -> Fraction:
    """c_p = B_2p (n+2p-1)!/(2p)!, exact."""
    return bernoulli(2 * p) * Fraction(math.factorial(n + 2 * p - 1), math.factorial(2 * p))


def ln_below(y: Fraction, terms: int = 40) -> Fraction:
    """A rational lower bound on ln y for y >= 1: ln y = m ln 2 + ln(y/2^m)
    with 1 <= y/2^m < 2, each ln b = 2 atanh((b-1)/(b+1)) cut after `terms`
    terms of its positive series."""
    def ln_b(b: Fraction) -> Fraction:
        z = (b - 1) / (b + 1)
        return 2 * sum(z ** (2 * k + 1) / (2 * k + 1) for k in range(terms))

    m = 0
    while y / 2 ** (m + 1) >= 1:
        m += 1
    return m * ln_b(Fraction(2)) + ln_b(y / 2**m)


# -- the n = 0 row: each term's need, in eps per |term| ------------------------

# 1/(x+k): x + k rounds (1/2, amplified by |-1|), pow (1), math.fsum (1/2);
# 0! = 1 and the product by it are exact
EXPLICIT_NEED = HALF + 1 + HALF
# 1/(2y): y (1/2) and the division (1/2); the products by 0! and y^-0 and
# the halving are exact
HALF_SAMPLE_NEED = HALF + HALF


def log_need(ln_y: Fraction) -> Fraction:
    """-ln y: y's rounding moves ln y by 1/2 eps absolute, then log's ulp."""
    return HALF / ln_y + 1


def pair_need(p: int) -> Fraction:
    """c_p r^p y^-0: c_p (1/2), r = inv_y^2 (2 x 1 + 1/2), r^p (2.5p + 1),
    the product (1/2); the product by y^-0 = 1 is exact."""
    return HALF + (Fraction(5, 2) * p + 1) + HALF


# the remainder |c_8| r^8 is computed like a pair, then added to the floor and
# to the rounding charge (1/2); it is not in tail_abs, so all of it is extra
REMAINDER_NEED = pair_need(psi_mod._MAX_EM_PAIRS) + HALF


def charges(n: int = 0) -> tuple[Fraction, Fraction]:
    """Row n's explicit-sum and tail factors, in eps."""
    row = psi_mod._order_constants(n)
    return Fraction(row[-2]) / EPS, Fraction(row[-1]) / EPS


def overdraw(y: Fraction, tail: Fraction) -> Fraction:
    """eps the pairs and the remainder need beyond the tail factor, absolute."""
    pairs = sum((pair_need(p) - tail) * abs(coeff(0, p)) / y ** (2 * p)
                for p in range(1, psi_mod._MAX_EM_PAIRS))
    return pairs + REMAINDER_NEED * abs(coeff(0, psi_mod._MAX_EM_PAIRS)) / y**16


def surplus(y: Fraction, ln_y: Fraction, tail: Fraction) -> Fraction:
    """eps the tail factor grants -ln y beyond its need, absolute."""
    return (tail - log_need(ln_y)) * ln_y


def test_constants_are_the_exact_rationals_rounded_once():
    row = psi_mod._order_constants(0)
    assert row[:4] == (1.0, None, -1.0, -0.0)
    for p, c in enumerate(row[4], 1):
        exact = abs(coeff(0, p))
        assert abs(abs(Fraction(c)) - exact) <= HALF * EPS * exact, p
    assert 24.0 ** row[3] == 1.0  # y^-0: the tail's scaling is exact


def test_explicit_charge_covers_each_term():
    explicit, _ = charges()
    assert explicit >= EXPLICIT_NEED


def test_tail_charge_covers_log_and_half_sample():
    _, tail = charges()
    # ln y >= ln 24, where 1/2 / ln y is largest
    assert tail >= log_need(ln_below(Fraction(Y_MIN)))
    assert tail >= HALF_SAMPLE_NEED


def test_pairs_overdraw_is_paid_by_log_surplus():
    _, tail = charges()
    # the surplus grows in y (tail > 1 on ln y, less a constant 1/2) and the
    # overdraw, positive multiples of y^-2p, falls: so the ratio falls in y
    assert tail > 1
    assert all(pair_need(p) > tail for p in range(1, psi_mod._MAX_EM_PAIRS))
    ratios = []
    for y in (Fraction(24), Fraction(25), Fraction(32), Fraction(10**3), Fraction(10**6)):
        s = surplus(y, ln_below(y), tail)
        assert s > 0, y
        ratios.append(overdraw(y, tail) / s)
    assert ratios == sorted(ratios, reverse=True)
    # the comment on _order_constants quotes this; it is 1.6e-3
    assert ratios[0] < Fraction(2, 1000)


def test_second_order_terms_fit_the_slack():
    # Compounded, a term whose first-order need is D (as a fraction) is off
    # by at most 1/(1 - D) - 1 = D + D^2/(1 - D); the computed charge loses at
    # most 5 roundings of itself (tail_abs's fsum, the product, two sums and
    # remainder + rounding).  Per unit of S + T (S the explicit sum, T the
    # tail's |terms|, T <= log2(DBL_MAX) + 1) that is at most c below.  The
    # slack: ln y's surplus at y = 24 net of the overdraw, and the 1.5 ulp of
    # the final sum its rounding leaves unused, >= 3/4 eps |total| with
    # |total| >= S - T.  So c (S + T) fits if it does at S = T = T_max and c
    # is below the 3/4 eps the slack gains per unit of S.
    explicit, tail = charges()
    d_max = max(pair_need(p) for p in range(1, psi_mod._MAX_EM_PAIRS)) * EPS
    d_max = max(d_max, REMAINDER_NEED * EPS, EXPLICIT_NEED * EPS)
    c = d_max**2 / (1 - d_max) + 5 * (EPS / 2) * max(explicit, tail) * EPS
    t_max = 1025
    y = Fraction(Y_MIN)
    net = (surplus(y, ln_below(y), tail) - overdraw(y, tail)) * EPS
    assert c * 2 * t_max <= net
    assert c <= Fraction(3, 4) * EPS * (1 - EPS / 2)


def test_each_pair_shrinks_the_remainder_bound():
    # Taking p pairs leaves |c_(p+1)| y^-(n+2p+2): each such bound is at most
    # 5.7 % of the one before for n = 0..120 at the smallest y = 24 + 0.55n
    # (the ratio is |c_(p+1)/c_p| / y^2, so it falls in y), and taking all
    # seven pairs is the best cut; no search for it is needed.
    worst = max(
        abs(coeff(n, p + 1) / coeff(n, p)) / (24 + Fraction(11, 20) * n) ** 2
        for n in range(0, psi_mod.ORDER_CAP + 1)
        for p in range(1, psi_mod._MAX_EM_PAIRS)
    )
    assert worst <= Fraction(57, 1000)


def test_shift_keeps_the_late_pairs_small():
    # The lemma _series' comment states for n >= 1: at y >= y_min, pairs
    # 4..7 sum below 1.1e-5 of the leading term, sum |c_p| y^-(n+2p) against
    # (n-1)! y^-n.  Each term falls in y, so the least y the shift can give
    # covers every larger one.  y falls at most 1.5 ulp(y_min) short of
    # y_min: y_min - x rounds by half an ulp of y_min, and x + K by half an
    # ulp of y < 2 y_min.  The check stands 4 ulps short.
    for n in range(1, psi_mod.ORDER_CAP + 1):
        y_min = psi_mod._order_constants(n)[-3]
        y = Fraction(y_min) - 4 * Fraction(math.ulp(y_min))
        pairs = sum(abs(coeff(n, p)) / y ** (2 * p) for p in range(4, psi_mod._MAX_EM_PAIRS))
        # the largest ratio is 1.094e-5, at n = 120
        assert pairs <= Fraction(11, 10**6) * math.factorial(n - 1), n


# -- the n >= 1 rows: each term's need, in eps per |term| ----------------------
#
# The tail's y^-n inherits y's rounding n times over; pow and the product
# by y^-n cost every tail term 1 + 1/2 more.  The n = 0 terms above are these
# terms with y^-0 = 1 and 0! = 1, whose products are exact.

ORDERS = range(1, psi_mod.ORDER_CAP + 1)
# the shift lemma's bound on pairs 4..7, per unit of the leading term
# (test_shift_keeps_the_late_pairs_small)
LATE_PAIRS = Fraction(11, 10**6)


def least_y(n: int) -> Fraction:
    """Below every y the shift gives at order n: y_min less 4 of its ulps."""
    y_min = psi_mod._order_constants(n)[-3]
    return Fraction(y_min) - 4 * Fraction(math.ulp(y_min))


def scaling_need(n: int) -> Fraction:
    """y^-n: y's rounding (1/2, amplified by n) and pow (1); the product by
    it (1/2)."""
    return HALF * n + 1 + HALF


def explicit_need_n(n: int) -> Fraction:
    """n! (x+k)^-(n+1): x + k (1/2, amplified by n + 1), pow (1), n! and the
    product (1/2 each), math.fsum (1/2)."""
    return HALF * (n + 1) + 1 + HALF + HALF + HALF


def lead_need(n: int) -> Fraction:
    """(n-1)! y^-n: (n-1)! (1/2) and the scaling."""
    return HALF + scaling_need(n)


def half_sample_need_n(n: int) -> Fraction:
    """n! y^-n inv_y / 2: n! (1/2), the scaling, inv_y (1) and the product
    by it (1/2); the halving is exact."""
    return HALF + scaling_need(n) + 1 + HALF


def pair_need_n(n: int, p: int) -> Fraction:
    """c_p r^p y^-n: the n = 0 pair c_p r^p and the scaling."""
    return pair_need(p) + scaling_need(n)


def remainder_need_n(n: int) -> Fraction:
    """|c_8 r^8 y^-n|, computed as the pair p = 8 (abs is exact), then added
    to the floor (1/2); it is not in tail_abs, so all of it is extra."""
    return pair_need_n(n, psi_mod._MAX_EM_PAIRS) + HALF


def test_explicit_charge_covers_each_term_at_every_order():
    for n in ORDERS:
        explicit, _ = charges(n)
        assert explicit >= explicit_need_n(n), n


def test_tail_charge_covers_the_leading_term_half_sample_and_first_pairs():
    # each on its own; pairs 4..7 are paid from the leading term's surplus
    for n in ORDERS:
        _, tail = charges(n)
        needs = [lead_need(n), half_sample_need_n(n)] + [pair_need_n(n, p) for p in (1, 2, 3)]
        assert all(tail >= need for need in needs), n


def late_share(n: int, tail: Fraction) -> tuple[Fraction, Fraction]:
    """Pairs 4..7 and the remainder per unit of the leading term (n-1)! y^-n
    at the least y: their size, and the eps they need beyond the tail
    factor.  The pairs are below the lemma's bound and overdraw by at most
    their worst excess; the remainder, |c_8| y^-16 / (n-1)!, needs all of
    its eps.  Both fall in y, so the least y covers every larger one."""
    excess = max(0, *(pair_need_n(n, p) - tail for p in range(4, psi_mod._MAX_EM_PAIRS)))
    remainder = (abs(coeff(n, psi_mod._MAX_EM_PAIRS))
                 / (math.factorial(n - 1) * least_y(n) ** (2 * psi_mod._MAX_EM_PAIRS)))
    return LATE_PAIRS + remainder, excess * LATE_PAIRS + remainder_need_n(n) * remainder


def test_late_pairs_and_remainder_are_paid_by_the_leading_surplus():
    for n in ORDERS:
        _, tail = charges(n)
        assert tail - lead_need(n) >= late_share(n, tail)[1], n


def test_second_order_terms_fit_the_slack_at_every_order():
    # Per unit of a term whose first-order need is D (as a fraction), the
    # needs leave out: D^2/(1 - D) of compounding, the grant on a computed
    # |term| up to D short, and 5 roundings the computed charge loses of
    # itself.  Each term's own slack pays for them: an explicit term's, the
    # half-sample's and pairs 1..3's; the leading term's surplus, net of the
    # late terms' overdraw, pays for itself and them.
    for n in ORDERS:
        explicit, tail = charges(n)
        # the largest need: a pair's grows with p, and the remainder is pair 8
        d = max(explicit_need_n(n), remainder_need_n(n)) * EPS
        grant = max(explicit, tail) * EPS
        c = d**2 / (1 - d) + grant * d + 5 * (EPS / 2) * grant
        own = min(explicit - explicit_need_n(n), tail - half_sample_need_n(n),
                  *(tail - pair_need_n(n, p) for p in (1, 2, 3)))
        assert c <= own * EPS, n
        size, overdraw_n = late_share(n, tail)
        assert c * (1 + size) <= (tail - lead_need(n) - overdraw_n) * EPS, n
