"""Differential tests of the integer-numerator Polynomial.

axia.scalars.Polynomial stores integer numerators over one denominator.
Every operation is compared against two oracles: FractionPolynomial
(tests/fraction_poly.py, one Fraction per coefficient, schoolbook
arithmetic) and sympy's Poly over QQ.  Every result is also checked to be
in normal form: no trailing zero, a positive denominator and no factor
common to the denominator and all numerators.
"""

import operator
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axia.scalars import (POLY_ONE, POLY_T, QT, Polynomial, RationalFunction,
                          _monic_lcm, format_rational, poly_gcd, rat)

from fraction_poly import FractionPolynomial, fraction_poly_gcd

T = sympy.Symbol("t")

small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
tall = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                 st.integers(1, 10 ** 20))
scalars = st.one_of(small, small, tall)
coeff_lists = st.lists(st.one_of(small, small, st.just(Fraction(0)), tall),
                       max_size=6)
nonzero = scalars.filter(bool)
# divisors: degree 0-4, leading coefficient of either sign and often not 1
divisor_lists = st.builds(lambda cs, lead: cs + [lead],
                          st.lists(small, max_size=4),
                          st.one_of(nonzero, st.sampled_from(
                              [Fraction(-1), Fraction(-3), Fraction(2, 7),
                               Fraction(-5, 3)])))
points = st.one_of(small, tall, st.just(Fraction(0)),
                   st.builds(lambda x: -abs(x) - 1, tall))

SETTINGS = settings(max_examples=120, deadline=None)


def normal(p):
    """p, after asserting the canonical form of its representation."""
    n, d = p._n, p._d
    assert d > 0 and gcd(d, *n) == 1
    assert not n or n[-1] != 0
    assert all(type(x) is int for x in n) and type(d) is int
    assert p.coeffs == tuple(Fraction(x, d) for x in n)
    return p


def both(cs):
    return normal(Polynomial(cs)), FractionPolynomial(cs)


def sym(coeffs):
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        T, domain="QQ")


def same(p, oracle, spoly=None):
    """p equals the FractionPolynomial oracle and, if given, sympy's Poly."""
    normal(p)
    assert p.coeffs == oracle.coeffs
    if spoly is not None:
        assert sym(p.coeffs) == spoly


@SETTINGS
@given(coeff_lists, coeff_lists)
def test_add_sub_mul_match_oracles(xs, ys):
    (a, fa), (b, fb) = both(xs), both(ys)
    sa, sb = sym(fa.coeffs), sym(fb.coeffs)
    same(a + b, fa + fb, sa + sb)
    same(a - b, fa - fb, sa - sb)
    same(b - a, fb - fa, sb - sa)
    same(a * b, fa * fb, sa * sb)
    same(-a, -fa, -sa)


@SETTINGS
@given(coeff_lists, nonzero)
def test_scalar_operands_match_oracles(xs, c):
    a, fa = both(xs)
    fc = FractionPolynomial([c])
    same(a * c, fa * fc)
    same(c * a, fa * fc)
    same(a + c, fa + fc)
    same(c - a, fc - fa)


@SETTINGS
@given(coeff_lists, divisor_lists)
def test_divmod_matches_oracles(xs, ys):
    (a, fa), (b, fb) = both(xs), both(ys)
    q, r = divmod(a, b)
    fq, fr = divmod(fa, fb)
    sq, sr = sym(fa.coeffs).div(sym(fb.coeffs))
    same(q, fq, sq)
    same(r, fr, sr)
    assert r.degree < b.degree
    assert q * b + r == a
    assert a % b == r


@SETTINGS
@given(coeff_lists, divisor_lists, coeff_lists)
def test_exact_div_matches_oracles_and_rejects_a_remainder(xs, ys, rs):
    (a, fa), (b, fb) = both(xs), both(ys)
    same((a * b).exact_div(b), (fa * fb).exact_div(fb))
    r = Polynomial(rs[:len(ys) - 1])
    if not r.is_zero():
        with pytest.raises(ValueError):
            (a * b + r).exact_div(b)
        with pytest.raises(ValueError):
            (fa * fb + FractionPolynomial(r.coeffs)).exact_div(fb)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial([1, 2]), Polynomial())


@SETTINGS
@given(coeff_lists)
def test_monic_and_derivative_match_oracles(xs):
    a, fa = both(xs)
    sa = sym(fa.coeffs)
    same(a.monic(), fa.monic(), sa.monic() if not a.is_zero() else sa)
    same(a.derivative(), fa.derivative(), sa.diff(T))
    if not a.is_zero():
        assert a.monic().leading() == 1


@SETTINGS
@given(coeff_lists, coeff_lists, divisor_lists)
def test_poly_gcd_matches_oracles(xs, ys, zs):
    # a common factor c makes most gcds nontrivial
    (a, fa), (b, fb), (c, fc) = both(xs), both(ys), both(zs)
    for p, q, fp, fq in ((a, b, fa, fb), (a * c, b * c, fa * fc, fb * fc),
                         (a * c, c, fa * fc, fc),
                         (c, Polynomial(), fc, FractionPolynomial())):
        g = poly_gcd(p, q)
        same(g, fraction_poly_gcd(fp, fq),
             sympy.gcd(sym(fp.coeffs), sym(fq.coeffs)))


@SETTINGS
@given(coeff_lists, points)
def test_evaluation_matches_oracles(xs, t0):
    a, fa = both(xs)
    value = a(t0)
    assert value == fa(t0)
    assert value == a(str(t0)) == a(rat(t0))
    assert sympy.Rational(value.numerator, value.denominator) == \
        sym(fa.coeffs).eval(sympy.Rational(t0.numerator, t0.denominator))


@SETTINGS
@given(coeff_lists, nonzero)
def test_equal_values_are_equal_and_equally_hashed(xs, c):
    a = Polynomial(xs)
    paths = [Polynomial([str(x) for x in xs]), Polynomial(a.coeffs),
             (a * c) * (1 / c), (a + c) - c,
             (a * c).exact_div(Polynomial([c])),
             divmod(a * Polynomial([0, c]), Polynomial([0, c]))[0]]
    for p in paths:
        assert normal(p) == a and hash(p) == hash(a)
        assert (p._n, p._d) == (a._n, a._d)
    assert hash(a) == hash(FractionPolynomial(xs))


def test_constants_hash_like_their_rational():
    half = Polynomial((Fraction(1, 2),))
    reached = [Polynomial([3]) - Polynomial(["5/2"]),
               Polynomial([1, 7]) * Fraction(1, 2) - Polynomial([0, "7/2"]),
               divmod(Polynomial([1, 1]), Polynomial([2, 2]))[0],
               QT.of("2/4").num, Polynomial([Fraction(1, 2), 0])]
    for p in reached:
        assert p == half and hash(p) == hash(Fraction(1, 2))
        assert p == Fraction(1, 2)
    assert hash(Polynomial([-7])) == hash(-7)
    assert hash(Polynomial()) == hash(0)
    assert hash(RationalFunction(half)) == hash(Fraction(1, 2))
    assert hash(RationalFunction(Polynomial())) == hash(Fraction(0))


def test_polynomial_rational_functions_hash_like_their_numerator():
    # equal objects hash alike, so a set or dict finds either type
    for p in (POLY_T, Polynomial([1, "-2/3", 5])):
        f = RationalFunction(p)
        assert f == p and hash(f) == hash(p)
        assert f in {p} and p in {f}


rfs = st.builds(lambda n, d: RationalFunction(Polynomial(n), Polynomial(d)),
                coeff_lists, divisor_lists)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


@settings(max_examples=60, deadline=None)
@given(rfs, rfs, st.sampled_from(sorted(OPS)))
def test_rational_function_normal_form(f, g, op):
    assume(op != "/" or not g.is_zero())
    h = OPS[op](f, g)
    normal(h.num)
    normal(h.den)
    assert h.den.leading() == 1
    assert poly_gcd(h.num, h.den) == POLY_ONE
    if h.num.is_zero():
        assert h.den == POLY_ONE
    sf, sg = (sym(x.num.coeffs).as_expr() / sym(x.den.coeffs).as_expr()
              for x in (f, g))
    value = sym(h.num.coeffs).as_expr() / sym(h.den.coeffs).as_expr()
    assert sympy.cancel(value - OPS[op](sf, sg)) == 0


# Operands with denominator 1 take the fast paths of RationalFunction; the
# same values over an equal denominator that is another object than
# POLY_ONE take the general, normalising path.
den_one = st.builds(lambda n: RationalFunction(Polynomial(n)), coeff_lists)
constants = st.builds(lambda c: RationalFunction(Polynomial([c])), nonzero)


def _general(f):
    return RationalFunction(f.num, Polynomial([1]), _normalized=True)


@settings(max_examples=120, deadline=None)
@given(den_one, st.one_of(den_one, constants), st.sampled_from(sorted(OPS)))
def test_den_one_fast_paths_equal_the_general_path(f, g, op):
    assume(op != "/" or not g.is_zero())
    assert f.den is POLY_ONE and g.den is POLY_ONE
    assert _general(f).den is not POLY_ONE
    fast = OPS[op](f, g)
    general = OPS[op](_general(f), _general(g))
    assert (fast.num, fast.den) == (general.num, general.den)
    assert fast == general and hash(fast) == hash(general)


@SETTINGS
@given(rfs)
def test_to_json_formats_the_coefficients_as_format_rational_does(f):
    # a copy whose coeffs no repr or hash has built yet
    f = RationalFunction(Polynomial(f.num.coeffs), Polynomial(f.den.coeffs),
                         _normalized=True)
    doc = QT.to_json(f)
    assert not hasattr(f.num, "_c") and not hasattr(f.den, "_c")
    assert doc == {"num": [format_rational(c) for c in f.num.coeffs],
                   "den": [format_rational(c) for c in f.den.coeffs]}


def _clear_by_equality(xs):
    """FunctionField.clear comparing denominators by == alone."""
    d = POLY_ONE
    for x in xs:
        if x.den != d:
            d = _monic_lcm(d, x.den)
    return [x.num if x.den == d else x.num * d.exact_div(x.den)
            for x in xs], d


# lists that repeat one value, so that some denominators are one object,
# and mix in denominator 1 (POLY_ONE itself) and its equal copies
@SETTINGS
@given(st.lists(st.one_of(rfs, den_one, den_one.map(_general)), max_size=6),
       st.lists(st.integers(0, 5), max_size=4))
def test_clear_equals_clearing_by_equality(xs, repeats):
    xs = xs + [xs[i % len(xs)] for i in repeats if xs]
    nums, d = QT.clear(xs)
    ref_nums, ref_d = _clear_by_equality(xs)
    assert d == ref_d
    assert [(n._n, n._d) for n in nums] == [(n._n, n._d) for n in ref_nums]
