"""Test-only oracle: the dense polynomial over Q with one Fraction per
coefficient, as axia stored Q[t] before the integer-numerator form.

The arithmetic is the schoolbook one on Fractions: no common denominator,
no pseudo-division.  tests/test_polynomial_diff.py compares
axia.scalars.Polynomial against it and against sympy.
"""

from fractions import Fraction


class FractionPolynomial:
    """Coefficients ascending, no trailing zeros; immutable by convention."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def __hash__(self):
        c = self.coeffs
        return hash(c) if len(c) > 1 else hash(c[0] if c else 0)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return FractionPolynomial(cs)

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionPolynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return FractionPolynomial(out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dd = len(other.coeffs) - 1
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            f = rem[i] / dlead
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] -= f * oc
        return FractionPolynomial(q), FractionPolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return FractionPolynomial([c / lead for c in self.coeffs])

    def derivative(self):
        return FractionPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, t0):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc


def fraction_poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm over Fractions."""
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()
