"""Workload inputs, made from the seed.  Imports nothing from axia, so the
checks in ``run.py`` use the same inputs without importing the program."""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("m4a-symbolic", "point-grid")

# The 12-point certification grid: both ends of [0, 1/6], interior and
# near-boundary points, and 9/4, where the radical has dimension 5.
GRID = ("-1/10", "-1/100", "0", "1/24", "1/12", "1/8", "1/6", "9/50", "1/5",
        "1", "2", "9/4")

# Seeded extra points: (open interval, digits of the denominator).  Each
# side of 0 and of 1/6 gets a low-height and a high-height point.
POINT_SLOTS = ((("-2", "0"), 2), (("-2", "0"), 10),
               (("0", "1/6"), 2), (("0", "1/6"), 12),
               (("1/6", "4"), 3), (("1/6", "4"), 9))

# Values where the theorems or the eigenvalue sets change; a seeded point
# or t0 never equals one of them.
SPECIAL = frozenset(Fraction(x) for x in
                    ("0", "1/6", "9/4", "1", "1/2", "3/8", "1/4", "1/32"))

# Norton verdicts at the grid points next to the theorem's ends: just
# below 0, at 0 and 1/6, and just above 1/6.  The seeded points add one
# Norton verdict on each side.  A Norton check (a 144 x 144 LDLT over Q)
# costs about 1.2 s; with these seven, a round takes about 12 s, so a
# 45-second run makes three rounds.
NORTON_POINTS = ("-1/100", "0", "1/6", "9/50")

QUOTIENT_POINTS = ("0", "1/6")


def _is_prime(q):
    return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))


def _rational_in(rng, lo, hi, digits, prime=False):
    """A reduced p/q in the open interval (lo, hi) whose denominator has
    exactly ``digits`` digits (and is prime if ``prime``)."""
    lo, hi = Fraction(lo), Fraction(hi)
    while True:
        q = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if prime and not _is_prime(q):
            continue
        p_lo = math.floor(lo * q) + 1
        p_hi = math.ceil(hi * q) - 1
        if p_lo > p_hi:
            continue
        p = rng.randint(p_lo, p_hi)
        x = Fraction(p, q)
        if math.gcd(p, q) == 1 and x not in SPECIAL:
            return x


def seeded_points(seed):
    """The point-grid workload's extra points for ``seed``."""
    rng = random.Random(f"point-grid/{seed}")
    return tuple(str(_rational_in(rng, lo, hi, digits))
                 for (lo, hi), digits in POINT_SLOTS)


def majorana_points(seed):
    """The high-height seeded points, one on each side of 0 and 1/6, where
    the point-grid workload runs ``certify majorana``."""
    return seeded_points(seed)[1::2]


def check_point(seed):
    """A generic rational t0 for the m4a-symbolic plug-in checks.  Its
    denominator is a six-digit prime, so t0 is no root of the polynomials
    with small-prime leading coefficients on which the eigenspace
    dimensions and the closure dimension depend."""
    rng = random.Random(f"m4a-symbolic/{seed}")
    return str(_rational_in(rng, "-3", "3", 6, prime=True))
