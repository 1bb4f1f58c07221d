"""Scalar layer: rationals, polynomials, Q(t), Sturm root counting."""

import random
from math import lcm

import pytest
import sympy

from axia import certify, m4
from axia.errors import PoleAtPoint, ZeroPolynomial
from axia.scalars import (POLY_ONE, POLY_T, QQ, QT, Polynomial,
                          RationalFunction, _at, _l1, _past,
                          count_roots_open, format_rational, parse_rational,
                          poly_gcd, rat, rational_sign)

import sturm_reference
from conftest import poly, rf


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def test_parse_rational_accepts_exact_forms():
    assert parse_rational("3/4") == rat(3) / 4
    assert parse_rational("-7") == rat(-7)
    assert parse_rational("+2/6") == rat(1) / 3
    assert format_rational(parse_rational("2/6")) == "1/3"
    assert parse_rational(" -007/010\n") == rat(-7) / 10


# Arabic-Indic and full-width digits are Unicode digits that int() reads
@pytest.mark.parametrize("bad", ["0.1", "1e-3", "1/2/3", "", "a", "1 / 2",
                                 "\u0661/\u0661\u0662", "\uff11/\uff12",
                                 "1/\uff12", 0.5, 1, None])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@pytest.mark.parametrize("coerce", [
    rat, QQ.of, QT.of, lambda x: Polynomial([1, x]),
], ids=["rat", "QQ.of", "QT.of", "Polynomial"])
def test_floats_are_refused(coerce):
    # 0.1 is the binary fraction 3602879701896397/2^55, not 1/10
    with pytest.raises(TypeError, match="float"):
        coerce(0.1)


def test_rational_sign():
    assert rational_sign(rat("3/5")) == 1
    assert rational_sign(rat("-1/7")) == -1
    assert rational_sign(rat(0)) == 0


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomial_arithmetic_trivial():
    # (t + 1)^2 = t^2 + 2t + 1  [TRIVIAL]
    p = poly(1, 1)
    assert p * p == poly(1, 2, 1)
    assert p + poly(-1, -1) == Polynomial()
    assert poly(1, 2, 1).degree == 2
    assert Polynomial().degree == float("-inf")


def test_polynomial_trailing_zeros_stripped():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0, 0).is_zero()


def test_polynomial_coefficients_from_int_string_and_fraction():
    # [TRIVIAL] rationals are kept as they are, other types coerced; the
    # results are equal, equally hashed and hold only rationals
    from fractions import Fraction
    polys = [Polynomial([3, 0, -2, 0]), Polynomial(["3", "0", "-2"]),
             Polynomial([parse_rational(x) for x in ("3", "0", "-2", "0")]),
             Polynomial([Fraction(6, 2), Fraction(0), Fraction(-4, 2)])]
    for p in polys:
        assert p == polys[0] and hash(p) == hash(polys[0])
        assert p.coeffs == (rat(3), rat(0), rat(-2)) and p.degree == 2
        assert all(type(c) is type(rat(1)) for c in p.coeffs)
    halves = [Polynomial(["1/2"]), Polynomial([Fraction(1, 2)]),
              Polynomial([parse_rational("2/4")])]
    assert len({hash(p) for p in halves}) == 1 and halves[0] == halves[1:][0]
    assert hash(RationalFunction(halves[1])) == hash(rat("1/2"))
    assert Polynomial([0, Fraction(0)]).is_zero()


def test_polynomial_divmod_and_exact_div():
    a = poly(-1, 0, 1)          # t^2 - 1
    b = poly(1, 1)              # t + 1
    q, r = divmod(a, b)
    assert q == poly(-1, 1) and r.is_zero()
    assert a.exact_div(b) == poly(-1, 1)
    with pytest.raises(Exception):
        poly(1, 1, 1).exact_div(b)


def test_polynomial_evaluation_horner():
    p = poly("1/2", -3, 1)      # t^2 - 3t + 1/2
    assert p(rat(2)) == rat("-3/2")  # 4 - 6 + 1/2  [TRIVIAL]
    assert p(rat(0)) == rat("1/2")


def test_poly_gcd():
    # gcd(t^2 - 1, t^2 - 2t + 1) = t - 1 (monic)  [TRIVIAL]
    g = poly_gcd(poly(-1, 0, 1), poly(1, -2, 1))
    assert g == poly(-1, 1)


def test_derivative():
    assert poly(5, -3, 0, 2).derivative() == poly(-3, 0, 6)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_rational_function_normalization():
    # (t^2 - 1)/(2t + 2) = (t - 1)/2 with monic denominator convention
    f = rf((-1, 0, 1), (2, 2))
    assert f == rf(("-1/2", "1/2"))
    assert f.den == POLY_ONE


def test_rational_function_equality_is_structural():
    assert rf((0, 2), (0, 0, 2)) == rf((1,), (0, 1))  # 2t/2t^2 = 1/t
    assert rf((1,), (0, 1)) != rf((1,), (0, 0, 1))


def test_rational_function_arithmetic_identities():
    f = rf((1, 2), (3, 0, 1))
    g = rf((0, 1), (1, 1))
    assert (f + g) - g == f
    assert (f * g) / g == f
    assert f * 0 == QT.zero
    assert (f ** 2) == f * f
    with pytest.raises(ValueError):
        f ** -1


def test_rational_function_evaluate_and_pole():
    f = rf((1,), (-1, 1))       # 1/(t - 1)
    assert f.evaluate(rat(3)) == rat("1/2")
    with pytest.raises(PoleAtPoint):
        f.evaluate(rat(1))


def _evaluate_by_division(f, t0):
    """The value of f at t0 as num(t0) / den(t0), whatever den is."""
    return f.num(t0) / f.den(t0)


def test_evaluate_on_a_polynomial_equals_the_division():
    # a normalised denominator is monic, so a constant one is 1 and
    # evaluate returns num(t0) without dividing: the value and its type
    # are those of the division, on random polynomials and on every
    # entry of the graded M_4A table, Gram matrix and generators at the
    # twelve grid points
    rng = random.Random(20261020)
    entries = [RationalFunction(Polynomial([
        rat(f"{rng.randint(-99, 99)}/{rng.randint(1, 50)}")
        for _ in range(rng.randint(0, 6))]), Polynomial([rat(c)]))
        for c in range(1, 5) for _ in range(25)]
    graded = m4.graded_m4a()
    alg, form, syms = graded.algebra, graded.form, graded.symmetries
    entries += [x for row in alg.mul_table for v in row for x in v]
    entries += [x for row in form.gram.data for x in row]
    entries += [x for g in syms.values() for row in g.data for x in row]
    assert all(x.den == POLY_ONE for x in entries)
    for t0 in map(rat, certify.DEFAULT_GRID):
        for x in entries:
            value = x.evaluate(t0)
            assert value == _evaluate_by_division(x, t0)
            assert type(value) is type(_evaluate_by_division(x, t0))


@pytest.mark.parametrize("f,pole", [
    (rf((0, 0, 1), (2, 1)), "-2"), (rf((1,), (0, 1)), "0"),
    (rf((1, 1), ("-1/4", 0, 1)), "1/2")],
    ids=["t2/(t+2)", "1/t", "1/(t2-1/4)"])
def test_evaluate_raises_at_a_pole(f, pole):
    with pytest.raises(PoleAtPoint):
        f.evaluate(rat(pole))
    assert f.evaluate(rat(7)) == _evaluate_by_division(f, rat(7))


@pytest.mark.parametrize("t0", ["-3/7", 5, rat("2/9")],
                         ids=["str", "int", "Fraction"])
def test_evaluate_takes_a_string_an_int_or_a_fraction(t0):
    # a Fraction is used as it is, anything else goes through rat
    f = rf((1, -2, "1/3"), (5, 1))           # (1 - 2t + t^2/3)/(t + 5)
    assert f.evaluate(t0) == f.evaluate(rat(t0)) == _evaluate_by_division(
        f, rat(t0))
    with pytest.raises(TypeError):
        f.evaluate(float(rat(t0)))
    for pole in ("-5", -5, rat(-5)):
        with pytest.raises(PoleAtPoint):
            f.evaluate(pole)


def test_constant_detection():
    assert rf((3,), (6,)).as_rational() == rat("1/2")
    assert not rf((0, 1)).is_constant()


# ---------------------------------------------------------------------------
# field protocol objects
# ---------------------------------------------------------------------------

def test_field_protocol_roundtrip():
    x = QQ.of("5/3")
    assert QQ.from_json(QQ.to_json(x)) == x
    f = QT.of("5/3") * QT.t
    assert QT.from_json(QT.to_json(f)) == f
    g = QT.one / (QT.t + 1)
    assert QT.to_json(g) == {"num": ["1"], "den": ["1", "1"]}
    assert QT.from_json(QT.to_json(g)) == g
    assert QQ.sign(QQ.of("-2")) == -1


@pytest.mark.parametrize("field", [QQ, QT], ids=["QQ", "QT"])
def test_clear_and_join_roundtrip(field):
    # [TRIVIAL] clear puts xs over one denominator; join undoes it
    if field is QQ:
        xs = [rat("1/6"), rat("-3/4"), rat(5), rat(0)]
    else:
        t, c = QT.t, QT.of
        xs = [c(1) / (t - 1), c(1) / (t * t - 1), c(3) / (c(2) * t + 1),
              c("1/32") * t, c(0)]
    nums, den = field.clear(xs)
    assert [field.join(n, den) for n in nums] == xs
    assert field.clear([]) == ([], field.clear([field.one])[1])


def test_at_point_over_q_returns_the_parts_as_given():
    def bound(coeffs):
        raise AssertionError("bound called over Q")
    parts = [[3, -4, 0], [7], []]
    ints, T = QQ.at_point(parts, bound)
    assert ints is parts and T == 1


@pytest.mark.parametrize("nums", [
    [poly(1, "-1/2"), poly(0, 0, "3/4"), poly()],
    [poly("1/6", 2), poly("-7/15")],
    [POLY_ONE],
    [],
], ids=["mixed-denominators", "coprime-denominators", "one", "empty"])
def test_at_point_over_qt_evaluates_the_scaled_parts_past_the_bound(nums):
    parts = [nums, nums[:1], [POLY_T * 2]]
    seen = []

    def bound(coeffs):
        seen.append(coeffs)
        return sum(_l1(c) for part in coeffs for c in part)

    ints, T = QT.at_point(parts, bound)
    (coeffs,) = seen
    for part, cs in zip(parts, coeffs):
        # one positive integer scale per part, clearing every coefficient
        scale = lcm(*(a.denominator for p in part for a in p.coeffs))
        assert cs == [tuple(int(a * scale) for a in p.coeffs)
                      for p in part]
    assert T == _past(bound(coeffs))
    assert ints == [[_at(c, T) for c in cs] for cs in coeffs]


def test_function_field_has_no_sign():
    with pytest.raises(TypeError):
        QT.sign(QT.t)


# ---------------------------------------------------------------------------
# Sturm root counting, checked against sympy and against construction
# ---------------------------------------------------------------------------

def _to_sympy(p):
    t = sympy.Symbol("t")
    return sum(sympy.Rational(str(c)) * t ** i for i, c in enumerate(p.coeffs))


def test_sturm_known_roots():
    # p = (t - 1/2)(t - 2)(t + 3)  [TRIVIAL roots]
    p = poly("-1/2", 1) * poly(-2, 1) * poly(3, 1)
    assert count_roots_open(p, rat(0), rat(1))[0] == 1
    assert count_roots_open(p, rat(-4), rat(3))[0] == 3
    assert count_roots_open(p, rat("5/2"), rat(10))[0] == 0


def test_count_roots_open_divides_out_endpoint_roots():
    # roots at 0 (double), 1/6 and 5
    p = poly(0, 0, 1) * poly("-1/6", 1) * poly(-5, 1)
    interior, at_a, at_b = count_roots_open(p, rat(0), rat("1/6"))
    assert (interior, at_a, at_b) == (0, True, True)
    interior, at_a, at_b = count_roots_open(p, rat(-1), rat(1))
    assert (interior, at_a, at_b) == (2, False, False)


def test_count_roots_open_of_a_constant():
    assert count_roots_open(poly(5), rat(0), rat(1)) == (0, False, False)
    assert count_roots_open(poly("-1/3"), rat(-1), rat(1)) == (0, False, False)


@pytest.mark.parametrize("p", [poly(5), poly(0, 1), poly(1, 1)],
                         ids=["constant", "root-at-a", "no-root"])
@pytest.mark.parametrize("a, b", [("1/6", "0"), ("1/6", "1/6")],
                         ids=["reversed", "empty"])
def test_count_roots_open_needs_a_below_b(p, a, b):
    with pytest.raises(ValueError):
        count_roots_open(p, rat(a), rat(b))


def test_count_roots_open_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        count_roots_open(Polynomial(), rat(0), rat(1))


def test_sturm_against_sympy_oracle():
    # [DERIVED] randomized comparison against sympy.polys real root counting
    rng = random.Random(20260823)
    t = sympy.Symbol("t")
    for _ in range(15):
        nroots = rng.randint(1, 4)
        p = POLY_ONE
        roots = []
        for _ in range(nroots):
            r = rat(rng.randint(-8, 8)) / rng.randint(1, 5)
            roots.append(r)
            p = p * poly(-r, 1)
        # random interval avoiding the roots as endpoints
        a = rat(rng.randint(-12, 0)) + rat("1/7")
        b = a + rng.randint(1, 15) + rat("1/11")
        expected = sympy.Poly(_to_sympy(p), t).count_roots(
            sympy.Rational(str(a)), sympy.Rational(str(b)))
        assert count_roots_open(p, a, b)[0] == expected
        # distinct roots only: cross-check against the constructed list
        assert count_roots_open(p, a, b)[0] == len(
            {r for r in roots if a < r < b})


def test_sturm_handles_repeated_roots():
    p = poly(-1, 1) ** 3 * poly(-2, 1)  # (t-1)^3 (t-2)
    assert count_roots_open(p, rat(0), rat(3))[0] == 2


def _roots_at_both_ends(rng):
    """A random polynomial with roots of multiplicity 1-3 at a, at b,
    inside (a, b) and elsewhere, each present or not, and an irreducible
    quadratic factor or not; returns (p, a, b, distinct interior roots)."""
    a = rat(rng.randint(-6, 2)) / rng.randint(1, 4)
    b = a + rat(rng.randint(1, 12)) / rng.randint(1, 6)
    roots = [r for r in (a, b) if rng.random() < 0.6]
    roots += [a + (b - a) * rng.randint(1, 9) / 10
              for _ in range(rng.randint(0, 3))]
    roots += [rat(rng.randint(-20, 20)) / 3 for _ in range(rng.randint(0, 2))]
    p = poly(rng.choice([-3, -1, "1/2", 2]))
    for r in roots:
        p = p * poly(-r, 1) ** rng.randint(1, 3)
    if rng.random() < 0.3:
        p = p * poly(rng.randint(1, 5), 0, 1)
    return p, a, b, len({r for r in roots if a < r < b})


def test_count_roots_open_matches_the_endpoint_division_count():
    # [DERIVED] the old path divides out endpoint roots, then counts
    rng = random.Random(20261019)
    for _ in range(300):
        p, a, b, interior = _roots_at_both_ends(rng)
        got = count_roots_open(p, a, b)
        assert got == sturm_reference.count_roots_open(p, a, b)
        assert got == (interior, p(a) == 0, p(b) == 0)


def test_count_roots_open_against_sympy_with_endpoint_roots():
    # [DERIVED] sympy counts the closed interval [a, b]
    rng = random.Random(20261020)
    t = sympy.Symbol("t")
    for _ in range(60):
        p, a, b, _ = _roots_at_both_ends(rng)
        closed = sympy.Poly(_to_sympy(p), t).count_roots(
            sympy.Rational(str(a)), sympy.Rational(str(b)))
        interior, at_a, at_b = count_roots_open(p, a, b)
        assert interior == closed - at_a - at_b


# ---------------------------------------------------------------------------
# property-based: field axioms of Q(t) elements
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

coeff = st.integers(-9, 9)
rfs = st.builds(
    lambda nc, dc: RationalFunction(Polynomial([rat(c) for c in nc]),
                                    Polynomial([rat(c) for c in dc])),
    st.lists(coeff, min_size=1, max_size=4),
    st.lists(coeff, min_size=1, max_size=3).filter(lambda cs: any(cs)))


@settings(max_examples=50, deadline=None)
@given(rfs, rfs, rfs)
def test_rational_function_field_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - f == QT.zero
    if not g.is_zero():
        assert (f / g) * g == f


# ---------------------------------------------------------------------------
# property-based: sub_dot against the plain expression x - sum(u * v)
# ---------------------------------------------------------------------------

heights = st.one_of(st.integers(-12, 12), st.just(0),
                    st.integers(-10 ** 30, 10 ** 30))
rationals = st.one_of(
    st.builds(rat, st.integers(-12, 12)),
    st.builds(lambda n, d: rat(n) / d, heights, st.integers(1, 6)),
    st.builds(lambda n, d: rat(n) / d, heights, st.integers(1, 10 ** 20)))
tall_rfs = st.one_of(st.just(QT.zero), rfs, st.builds(
    lambda nc, dc: RationalFunction(Polynomial([rat(c) for c in nc]),
                                    Polynomial([rat(c) for c in dc])),
    st.lists(heights, max_size=4),
    st.lists(heights, min_size=1, max_size=3).filter(lambda cs: any(cs))))


def plain_sub_dot(field, x, us, vs):
    return x - sum((u * v for u, v in zip(us, vs)), field.zero)


def test_sub_dot_of_empty_lists_is_x():
    x = rat("-7/3")
    assert QQ.sub_dot(x, [], []) == x
    assert QT.sub_dot(QT.t, [], []) == QT.t
    # the denominator of x survives when every product is zero
    assert QQ.sub_dot(x, [QQ.zero, rat(5)], [rat("1/7"), QQ.zero]) == x


@settings(max_examples=300, deadline=None)
@given(rationals, st.lists(st.tuples(rationals, rationals), max_size=8))
def test_qq_sub_dot_equals_plain_expression(x, terms):
    us, vs = [u for u, _ in terms], [v for _, v in terms]
    got = QQ.sub_dot(x, us, vs)
    assert type(got) is type(x)
    assert got == plain_sub_dot(QQ, x, us, vs)


@settings(max_examples=60, deadline=None)
@given(tall_rfs, st.lists(st.tuples(tall_rfs, tall_rfs), max_size=4))
def test_qt_sub_dot_equals_plain_expression(x, terms):
    us, vs = [u for u, _ in terms], [v for _, v in terms]
    got = QT.sub_dot(x, us, vs)
    want = plain_sub_dot(QT, x, us, vs)
    assert (got.num, got.den) == (want.num, want.den)
