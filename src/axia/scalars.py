"""Exact scalar arithmetic: rationals, polynomials in t, and the field Q(t).

Rationals are arbitrary-precision and always normalized (gcd 1, positive
denominator); gmpy2.mpq is used when available, with fractions.Fraction as a
drop-in fallback.  Polynomials are dense with rational coefficients (index =
degree).  RationalFunction keeps gcd(num, den) = 1 with a monic denominator,
so equality is structural.
"""

from __future__ import annotations

import math
import re

from .errors import PoleAtPoint, ZeroPolynomial

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is normally present
    from fractions import Fraction as Rational

RAT_ZERO = Rational(0)
RAT_ONE = Rational(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(x) -> Rational:
    """Coerce an int, rational string "p/q", or Rational to Rational."""
    if isinstance(x, str):
        return parse_rational(x)
    return Rational(x)


def parse_rational(s: str) -> Rational:
    """Parse the exact serialization "p/q" (q omitted when 1).

    Decimal notation is rejected: "0.1" is not an exact input.
    """
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational 'p/q': {s!r}")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ZeroDivisionError(f"zero denominator in {s!r}")
        return Rational(int(p), int(q))
    return Rational(int(s))


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
    """Dense univariate polynomial over the rationals, coefficients ascending.

    Immutable; no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -inf.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Rational else Rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, c):
        return cls((rat(c),))

    @classmethod
    def t(cls):
        return cls((RAT_ZERO, RAT_ONE))

    # -- basic structure ----------------------------------------------
    @property
    def degree(self):
        """Degree; -inf sentinel for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.coeffs) if len(self.coeffs) != 1 else hash(self.coeffs[0])
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return Polynomial(cs)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        if len(b) == 1:
            c = b[0]
            return Polynomial([x * c for x in a])
        if len(a) == 1:
            c = a[0]
            return Polynomial([x * c for x in b])
        out = [RAT_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial((RAT_ONE,))
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
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = len(other.coeffs) - 1
        q = [RAT_ZERO] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / dlead
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] -= f * oc
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def derivative(self):
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, t0):
        t0 = rat(t0)
        acc = RAT_ZERO
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

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


POLY_ZERO = Polynomial()
POLY_ONE = Polynomial((RAT_ONE,))
POLY_T = Polynomial.t()


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, type(RAT_ONE))):
        return Polynomial((Rational(x),))
    return None


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def _monic_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.degree <= 0:
        return b
    if b.degree <= 0:
        return a
    return a * b.exact_div(poly_gcd(a, b))


class RationalFunction:
    """Element of Q(t): num/den with gcd 1 and monic den.  Immutable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=POLY_ONE, _normalized=False):
        if not isinstance(num, Polynomial):
            num = Polynomial((rat(num),)) if not isinstance(num, (list, tuple)) \
                else Polynomial(num)
        if not isinstance(den, Polynomial):
            den = Polynomial((rat(den),)) if not isinstance(den, (list, tuple)) \
                else Polynomial(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = _rf_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

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
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.den == POLY_ONE and self.num.degree <= 0:
                h = hash(self.num)
            else:
                h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
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
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return RAT_FUNC_ONE / self ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def evaluate(self, t0):
        """Exact value at a rational point; PoleAtPoint if den vanishes."""
        t0 = rat(t0)
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
    if num.is_zero():
        return POLY_ZERO, POLY_ONE
    if den.degree == 0:
        c = den.coeffs[0]
        if c == 1:
            return num, POLY_ONE
        return Polynomial([x / c for x in num.coeffs]), POLY_ONE
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num.exact_div(g)
        den = den.exact_div(g)
    lead = den.leading()
    if lead != 1:
        num = Polynomial([c / lead for c in num.coeffs])
        den = Polynomial([c / lead for c in den.coeffs])
    return num, den


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction(x, POLY_ONE, _normalized=True)
    if isinstance(x, (int, type(RAT_ONE))):
        return RationalFunction(Polynomial((Rational(x),)), POLY_ONE,
                                _normalized=True)
    return None


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


def sturm_root_count(p: Polynomial, a, b) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Requires p(a) != 0 and p(b) != 0; use count_roots_open to strip
    endpoint roots first.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    a, b = rat(a), rat(b)
    if not a < b:
        raise ValueError(f"need a < b, got {a} >= {b}")
    if p(a) == 0 or p(b) == 0:
        raise ValueError("endpoint is a root; divide it out first")
    chain = sturm_chain(p)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def count_roots_open(p: Polynomial, a, b):
    """(interior root count, multiplicity-free root flags at a and b).

    Exact endpoint roots are divided out as linear factors before the
    Sturm count, so boundary points (e.g. the definiteness endpoints 0
    and 1/6) never poison the interior count.
    """
    if p.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    a, b = rat(a), rat(b)
    root_a = root_b = False
    while not p.is_zero() and p.degree >= 1 and p(a) == 0:
        root_a = True
        p = p.exact_div(Polynomial((-a, RAT_ONE)))
    while not p.is_zero() and p.degree >= 1 and p(b) == 0:
        root_b = True
        p = p.exact_div(Polynomial((-b, RAT_ONE)))
    if p.degree <= 0:
        return 0, root_a, root_b
    return sturm_root_count(p, a, b), root_a, root_b


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
            d = math.lcm(d, x.denominator)
        return [x.numerator * (d // x.denominator) for x in xs], d

    def join(self, num, den):
        """The rational num/den, normalised."""
        return Rational(num, den)

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
        if isinstance(x, Polynomial):
            return RationalFunction(x, POLY_ONE, _normalized=True)
        return RationalFunction(Polynomial((rat(x),)), POLY_ONE,
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

    def join(self, num, den):
        """The rational function num/den, normalised."""
        return RationalFunction(num, den)

    def sign(self, x):
        raise TypeError("no sign on Q(t); specialize first")

    def to_json(self, x):
        return {"num": [format_rational(c) for c in x.num.coeffs],
                "den": [format_rational(c) for c in x.den.coeffs]}

    def from_json(self, d):
        return RationalFunction(Polynomial([parse_rational(c) for c in d["num"]]),
                                Polynomial([parse_rational(c) for c in d["den"]]))

    def __repr__(self):
        return "QT"


QQ = RationalField()
QT = FunctionField()

FIELDS_BY_KIND = {QQ.kind: QQ, QT.kind: QT}
