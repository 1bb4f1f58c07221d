"""Exact scalar arithmetic: rationals, polynomials in t, and the field Q(t).

Rationals are fractions.Fraction: arbitrary-precision and always
normalized (gcd 1, positive denominator).  A Polynomial in Q[t] is dense
and stored as a tuple of int numerators (index = degree) over one positive
int denominator that shares no factor with all of them; its arithmetic
runs on those ints, with pseudo-division for divmod and gcd, and builds
Rationals only for the `coeffs` view and for values.  RationalFunction keeps gcd(num, den) = 1 with
a monic denominator, so equality is structural.
Each field's at_point turns cleared numerators into ints: over Q(t) their
values at one power of two past a bound that linalg._eliminate and
algebra._at_point each prove for the identities they test.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rational
from math import gcd, lcm

from .errors import PoleAtPoint, ZeroPolynomial

RAT_ZERO = Rational(0)
RAT_ONE = Rational(1)

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(x) -> Rational:
    """Coerce an int, rational string "p/q", or Rational to Rational; a
    float is refused, as 0.1 is the binary fraction 3602879701896397/2^55."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        raise TypeError(f"not an exact rational: float {x!r}")
    return Rational(x)


def parse_rational(s: str) -> Rational:
    """Parse the exact serialization "p/q" (q omitted when 1).

    Decimal notation ("0.1") and digits other than ASCII 0-9 are rejected.
    """
    m = _RATIONAL_RE.fullmatch(s.strip()) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"not an exact rational 'p/q': {s!r}")
    p, q = int(m[1]), int(m[2] or 1)
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {s!r}")
    return Rational(p, q)


def format_rational(x) -> str:
    """Serialize a Rational as "p/q" with q omitted when 1."""
    return str(Rational(x))


def rational_sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class Polynomial:
    """Dense univariate polynomial over the rationals.

    The value is sum(_n[i] * t**i) / _d: `_n` is a tuple of ints with no
    trailing zero, and `_d` is an int > 0 with gcd(_d, *_n) = 1.  This form
    is canonical, so == compares the pair.  The zero polynomial is
    ((), 1) and has degree -inf.  `coeffs`, the ascending Rational
    coefficients, is built on first use.  Immutable.
    """

    __slots__ = ("_n", "_d", "_c")

    def __new__(cls, coeffs=()):
        rs = [c if type(c) is Rational else rat(c) for c in coeffs]
        d = lcm(*[r.denominator for r in rs])
        return _make([int(r.numerator * (d // r.denominator)) for r in rs],
                     int(d))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ----------------------------------------------
    @property
    def coeffs(self):
        """Ascending tuple of Rational coefficients."""
        try:
            return self._c
        except AttributeError:
            d = self._d
            c = tuple(Rational(x, d) for x in self._n)
            object.__setattr__(self, "_c", c)
            return c

    @property
    def degree(self):
        """Degree; -inf sentinel for the zero polynomial."""
        return len(self._n) - 1 if self._n else float("-inf")

    def is_zero(self):
        return not self._n

    def leading(self):
        if not self._n:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Rational(self._n[-1], self._d)

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        """Hash of the coefficient tuple; a constant, zero included, hashes
        like its Rational, to which it compares equal."""
        c = self.coeffs
        return hash(c) if len(c) > 1 else hash(c[0] if c else 0)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make([-x for x in self._n], self._d)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self._n, other._n
        if not a or not b:
            return POLY_ZERO
        if len(b) == 1:
            c = b[0]
            out = [x * c for x in a]
        elif len(a) == 1:
            c = a[0]
            out = [x * c for x in b]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
        return _make(out, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("polynomial division by zero")
        # f*A = q*B + r on the numerators, so self = A/_d and
        # other = B/other._d give self = (q*other._d / (f*_d)) * other
        # + r / (f*_d)
        f, q, r = _pseudo_divmod(self._n, other._n)
        den = f * self._d
        b = other._d
        return _make([x * b for x in q], den), _make(r, den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if r._n:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        n = self._n
        if not n or n[-1] == self._d:
            return self
        return _scale(self, self._d, n[-1])

    def derivative(self):
        return _make([i * x for i, x in enumerate(self._n)][1:], self._d)

    def __call__(self, t0):
        if type(t0) is not Rational:
            t0 = rat(t0)
        n = self._n
        if not n:
            return RAT_ZERO
        # Horner on the numerator homogenised in t0 = p/q
        p, q = t0.numerator, t0.denominator
        acc, qk = 0, 1
        for c in reversed(n):
            acc = acc * p + c * qk
            qk *= q
        return Rational(acc, self._d * (qk // q))

    # -- display ---------------------------------------------------------
    def __repr__(self):
        return f"Polynomial({list(map(str, self.coeffs))})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = f"{c}*{mono}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)


_new = object.__new__
_set_n = Polynomial._n.__set__
_set_d = Polynomial._d.__set__


def _make(nums, den):
    """Trusted constructor: the polynomial sum(nums[i] * t**i) / den, from
    a list of ints (consumed) and an int den > 0.  Strips trailing zeros
    and divides out the common factor of nums and den."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    p = _new(Polynomial)
    _set_n(p, tuple(nums))
    _set_d(p, den)
    return p


def _l1(c):
    """l1 norm of an integer polynomial given as its coefficient tuple."""
    return sum(map(abs, c))


def _at(c, x):
    """Value at the integer x of an integer polynomial given as its
    ascending coefficient tuple."""
    v = 0
    for a in reversed(c):
        v = v * x + a
    return v


def _past(bound):
    """The power of two 2^(bitlen(bound) + 1), more than twice bound."""
    return 1 << (bound.bit_length() + 1)


def _from_rational(x):
    return _make([int(x.numerator)], int(x.denominator))


def _sum(p, q, s):
    """p + s*q for s = 1 or -1."""
    g = gcd(p._d, q._d)
    fa, fb = q._d // g, s * (p._d // g)
    a = [x * fa for x in p._n]
    b = [y * fb for y in q._n]
    if len(a) < len(b):
        a, b = b, a
    for i, y in enumerate(b):
        a[i] += y
    return _make(a, p._d * fa)


def _scale(p, a, b):
    """p * a / b for ints a and b != 0."""
    if b < 0:
        a, b = -a, -b
    return _make([x * a for x in p._n], p._d * b)


def _pseudo_divmod(a, b):
    """(f, q, r) for int coefficient sequences a and b, b with a nonzero
    leading entry: f*a = q*b + r with an int f > 0 and len(r) <= deg b.

    Each step scales by |lead(b)| / gcd(c, lead(b)) only, where c is the
    entry it removes, and carries the sign of lead(b) in the quotient
    entry, so that f stays positive."""
    n = len(b) - 1
    lead = b[-1]
    alead = -lead if lead < 0 else lead
    rem = list(a)
    q = [0] * max(len(a) - n, 0)
    f = 1
    for i in range(len(a) - 1, n - 1, -1):
        c = rem[i]
        if not c:
            continue
        g = gcd(c, alead)
        m = alead // g
        if m != 1:
            rem = [x * m for x in rem]
            q = [x * m for x in q]
            f *= m
        c //= g
        if lead < 0:
            c = -c
        q[i - n] = c
        for j, y in enumerate(b, i - n):
            rem[j] -= c * y
    return f, q, rem[:n]


POLY_ZERO = Polynomial()
POLY_ONE = Polynomial((1,))
POLY_T = Polynomial((0, 1))


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int):
        return _make([x], 1)
    if isinstance(x, Rational):
        return _from_rational(x)
    return None


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm on the integer numerators,
    each remainder reduced to its primitive part."""
    x, y = a._n, b._n
    while y:
        r = _pseudo_divmod(x, y)[2]
        while r and not r[-1]:
            r.pop()
        if r:
            g = gcd(*r)
            if g != 1:
                r = [v // g for v in r]
        x, y = y, r
    return _make(list(x), 1).monic()


def _monic_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.degree <= 0:
        return b
    if b.degree <= 0:
        return a
    return a * b.exact_div(poly_gcd(a, b))


class RationalFunction:
    """Element of Q(t): Polynomials num/den, gcd 1, monic den.  Immutable.

    When both operands have den POLY_ONE itself, as every entry of the
    M_4A table and form does, their sum, difference and product, and the
    quotient by a constant, are in that normal form already and skip the
    normalisation."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE, _normalized=False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _rf_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    # -- structure -------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_rational(self):
        """The value of a constant rational function as a Rational."""
        if not self.is_constant():
            raise ValueError(f"not constant: {self}")
        if self.num.is_zero():
            return RAT_ZERO
        return self.num.leading() / self.den.leading()

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == POLY_ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return RationalFunction(_sum(self.num, other.num, 1), POLY_ONE,
                                    _normalized=True)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return RationalFunction(_sum(self.num, other.num, -1), POLY_ONE,
                                    _normalized=True)
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if self.den is POLY_ONE and other.den is POLY_ONE:
            return RationalFunction(self.num * other.num, POLY_ONE,
                                    _normalized=True)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if (self.den is POLY_ONE and other.den is POLY_ONE
                and len(other.num._n) == 1):
            c = other.num
            return RationalFunction(_scale(self.num, c._d, c._n[0]),
                                    POLY_ONE, _normalized=True)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        return RationalFunction(self.num ** n, self.den ** n)

    def evaluate(self, t0):
        """Exact value at a rational point; PoleAtPoint if den vanishes."""
        if type(t0) is not Rational:
            t0 = rat(t0)
        if not self.den.degree:  # a monic constant: den is 1
            return self.num(t0)
        d = self.den(t0)
        if d == 0:
            raise PoleAtPoint(f"denominator {self.den} vanishes at t = {t0}")
        return self.num(t0) / d

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        if self.den == POLY_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _rf_normalize(num, den):
    if not num._n:
        return POLY_ZERO, POLY_ONE
    if len(den._n) == 1:
        c, d = den._n[0], den._d
        if c == d:
            return num, POLY_ONE
        return _scale(num, d, c), POLY_ONE
    g = poly_gcd(num, den)
    if len(g._n) > 1:
        num = num.exact_div(g)
        den = den.exact_div(g)
    c, d = den._n[-1], den._d
    if c != d:
        num = _scale(num, d, c)
        den = _scale(den, d, c)
    return num, den


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    p = _as_poly(x)
    if p is None:
        return None
    return RationalFunction(p, POLY_ONE, _normalized=True)


RAT_FUNC_ZERO = RationalFunction(POLY_ZERO)
RAT_FUNC_ONE = RationalFunction(POLY_ONE)
RAT_FUNC_T = RationalFunction(POLY_T)


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------

def sturm_chain(p: Polynomial):
    """Sturm chain of the squarefree part of p."""
    if p.is_zero():
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    p = p.exact_div(poly_gcd(p, p.derivative())) if p.degree > 0 else p
    chain = [p]
    if p.degree > 0:
        chain.append(p.derivative())
        while chain[-1].degree > 0:
            rem = chain[-2] % chain[-1]
            if rem.is_zero():
                break
            chain.append(-rem)
    return chain


def _sign_variations(chain, x):
    signs = [rational_sign(q(x)) for q in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_open(p: Polynomial, a, b):
    """(distinct roots of p in (a, b), p(a) == 0, p(b) == 0) for a < b.

    With V(x) the sign variations of the Sturm chain at x, V(a) - V(b)
    counts the distinct roots in (a, b]: the chain starts at the
    squarefree part, whose derivative is nonzero at each root r, so
    V(r) = V(r+) and V(r-) = V(r) + 1.  A root at b is then subtracted.
    """
    if p.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    a, b = rat(a), rat(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} >= {b}")
    chain = sturm_chain(p)
    root_b = p(b) == 0
    return (_sign_variations(chain, a) - _sign_variations(chain, b) - root_b,
            p(a) == 0, root_b)


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------

class RationalField:
    """The field Q; elements are Rational."""

    kind = "rationals"

    @property
    def zero(self):
        return RAT_ZERO

    @property
    def one(self):
        return RAT_ONE

    def of(self, x):
        if isinstance(x, RationalFunction):
            return x.as_rational()
        return rat(x)

    def is_zero(self, x):
        return x == 0

    def clear(self, xs):
        """(numerators, d): the rationals xs as integers over their least
        common denominator d."""
        d = 1
        for x in xs:
            d = lcm(d, x.denominator)
        return [x.numerator * (d // x.denominator) for x in xs], d

    def at_point(self, parts, bound):
        """(parts, 1): the parts, each a list of numerators as clear
        returns them, as they are, since cleared rationals are integers
        already; no point is needed, bound is not called, and unpack
        ignores the T = 1 returned."""
        return parts, 1

    def join(self, num, den):
        """The rational num/den, normalised."""
        return Rational(num, den)

    def unpack(self, v, T):
        """The int v as the numerator join takes: cleared rationals are
        integers already, so the point T plays no part."""
        return v

    def sub_dot(self, x, us, vs):
        """x - sum(u * v for u, v in zip(us, vs)), summed as one integer
        numerator over the product of the denominators and normalised
        once; the terms are few, so one gcd at the end beats one a term."""
        n, d = x.as_integer_ratio()
        for u, v in zip(us, vs):
            un, ud = u.as_integer_ratio()
            if un:
                vn, vd = v.as_integer_ratio()
                if vn:
                    q = ud * vd
                    n = n * q - un * vn * d
                    d *= q
        return Rational(n, d) if n else RAT_ZERO

    def sign(self, x):
        return rational_sign(x)

    def to_json(self, x):
        return format_rational(x)

    def from_json(self, s):
        return parse_rational(s)

    def __repr__(self):
        return "QQ"


class FunctionField:
    """The field Q(t); elements are RationalFunction."""

    kind = "rational_functions"

    @property
    def zero(self):
        return RAT_FUNC_ZERO

    @property
    def one(self):
        return RAT_FUNC_ONE

    @property
    def t(self):
        return RAT_FUNC_T

    def of(self, x):
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(_from_rational(rat(x)), POLY_ONE,
                                _normalized=True)

    def is_zero(self, x):
        return x.is_zero()

    def clear(self, xs):
        """(numerators, d): the rational functions xs as polynomials over
        their monic least common denominator d."""
        d = POLY_ONE
        for x in xs:
            if x.den != d:
                d = _monic_lcm(d, x.den)
        return [x.num if x.den == d else x.num * d.exact_div(x.den)
                for x in xs], d

    def scaled(self, part):
        """The polynomial numerators of part, as clear returns them, scaled
        by the one positive integer that clears all their coefficients: a
        list of ascending integer coefficient tuples, () for 0."""
        part = list(part)
        s = lcm(*[p._d for p in part])
        return [tuple(c * (s // p._d) for c in p._n) for p in part]

    def at_point(self, parts, bound):
        """(ints, T) for parts, each a list of polynomial numerators as
        clear returns them: each part scaled, and each entry replaced by
        its value at T = 2^(bitlen(C) + 1), where C = bound(coeffs) and
        coeffs are the parts through scaled."""
        coeffs = [self.scaled(part) for part in parts]
        T = _past(bound(coeffs))
        return [[_at(c, T) for c in part] for part in coeffs], T

    def join(self, num, den):
        """num/den, normalised; num may be the int 0 of an empty sum."""
        return RationalFunction(_as_poly(num), den)

    def unpack(self, v, T):
        """The integer polynomial whose value at the power of two T is the
        int v, read off the signed base-T digits of v, each in
        [-T/2, T/2): the inverse of evaluation at T for every polynomial
        whose coefficients lie in (-T/2, T/2)."""
        k = T.bit_length() - 1
        half, mask = T >> 1, T - 1
        digits = []
        while v:
            d = v & mask
            if d >= half:
                d -= T
            digits.append(d)
            v = (v - d) >> k
        return _make(digits, 1)

    def sub_dot(self, x, us, vs):
        """x - sum(u * v for u, v in zip(us, vs)) in field arithmetic;
        clearing to one polynomial denominator is slower here."""
        return x - sum((u * v for u, v in zip(us, vs)), self.zero)

    def at(self, xs, t0):
        """The rational functions xs at t = t0, a list of rationals, for
        every at(t0): zeros are not evaluated, PoleAtPoint at a pole and
        TypeError for a float t0 (rat)."""
        if type(t0) is not Rational:
            t0 = rat(t0)
        return [RAT_ZERO if x.is_zero() else x.evaluate(t0) for x in xs]

    def sign(self, x):
        raise TypeError("no sign on Q(t); evaluate at a point first (at)")

    def to_json(self, x):
        return {"num": [format_rational(c) for c in x.num.coeffs],
                "den": [format_rational(c) for c in x.den.coeffs]}

    def from_json(self, d):
        if not (isinstance(d, dict) and isinstance(d.get("num"), list)
                and isinstance(d.get("den"), list)):
            raise ValueError(f"not a {{'num': [...], 'den': [...]}}: {d!r}")
        return RationalFunction(*(Polynomial(list(map(parse_rational, d[k])))
                                  for k in ("num", "den")))

    def __repr__(self):
        return "QT"


QQ = RationalField()
QT = FunctionField()

FIELDS_BY_KIND = {QQ.kind: QQ, QT.kind: QT}
