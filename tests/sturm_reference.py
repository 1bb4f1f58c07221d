"""Test-only reference for root counts on an open interval, as axia
counted them before the one-identity count.

axia.scalars.count_roots_open reads the count in (a, b) from V(a) - V(b)
and the value at b.  Here every root at a or at b is first divided out as
a linear factor, and the remaining polynomial, which vanishes at neither
endpoint, is counted with the plain Sturm theorem, so tests/test_scalars.py
can compare the two.
"""

from axia.scalars import (RAT_ONE, Polynomial, _sign_variations, rat,
                          sturm_chain)


def sturm_root_count(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of p in (a, b), for p(a) != 0 and
    p(b) != 0."""
    a, b = rat(a), rat(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} >= {b}")
    if p(a) == 0 or p(b) == 0:
        raise ValueError("endpoint is a root; divide it out first")
    chain = sturm_chain(p)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def count_roots_open(p: Polynomial, a, b):
    """(interior root count, p(a) == 0, p(b) == 0), with the endpoint
    roots divided out before the Sturm count."""
    a, b = rat(a), rat(b)
    root_a = root_b = False
    while p.degree >= 1 and p(a) == 0:
        root_a = True
        p = p.exact_div(Polynomial((-a, RAT_ONE)))
    while p.degree >= 1 and p(b) == 0:
        root_b = True
        p = p.exact_div(Polynomial((-b, RAT_ONE)))
    if p.degree <= 0:
        return 0, root_a, root_b
    return sturm_root_count(p, a, b), root_a, root_b
