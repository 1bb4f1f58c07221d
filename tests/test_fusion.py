"""The integer fusion test against the span-reduction reference.

axia.algebra.verify_fusion decides each eigenvector product u*v by
evaluating prod_{nu in lam * mu} (ad_a - nu)(u*v), cleared to integer
polynomials, at one integer past a coefficient bound.  Here it must
return the same records as tests/fusion_reference.py, which reduces u*v
against the allowed eigenspaces over the algebra's field, on every
algebra the certifier checks, under tampered rules and on tampered
tables; and the evaluation point must clear every root that a violation
could hide behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axia.algebra import (Algebra, FusionRule, axis_decomposition,
                          quotient, radical, subalgebra_closure,
                          verify_fusion)
from axia.catalog import f4a_rule, jordan_half_rule, monster_rule
from axia.linalg import upper_pairs
from axia.m4 import specialize_m4a
from axia.scalars import POLY_T, QQ, QT, _at

from fusion_reference import verify_fusion as verify_fusion_reference


def _records(alg, axes, rule):
    """(records, reference records), one list per axis."""
    decs = [axis_decomposition(alg, ax, rule.eigenvalues) for ax in axes]
    return ([verify_fusion(alg, dec, rule) for dec in decs],
            [verify_fusion_reference(alg, dec, rule) for dec in decs])


def _v_axes(alg):
    return [alg.basis_vector(f"v_{i}{j}") for i, j in ((1, 2), (1, 3), (2, 3))]


def _tampered_rule(pair, targets):
    """The Monster rule over Q(t) with pair -> targets."""
    rule = monster_rule(QT)
    table = dict(rule.table)
    lam, mu = (QT.of(x) for x in pair)
    table[(lam, mu)] = table[(mu, lam)] = {QT.of(x) for x in targets}
    return FusionRule(QT, rule.eigenvalues, table)


def _tampered_table(alg, x, y, coord, delta):
    """alg with delta added to the coord coordinate of x*y (and y*x)."""
    products = {(i, j): list(alg.mul_table[i][j])
                for i, j in upper_pairs(alg.dim)}
    pair = tuple(sorted((alg.index(x), alg.index(y))))
    products[pair][alg.index(coord)] += delta
    return Algebra(alg.field, alg.labels, products)


# ---------------------------------------------------------------------------
# differential oracle: every algebra the certifier checks
# ---------------------------------------------------------------------------

def test_m4a_monster_axes_match_the_reference(m4a):
    new, ref = _records(m4a.algebra, m4a.axes, monster_rule(QT))
    assert new == ref == [[]] * 6


def test_m4a_4a_axes_match_the_reference(m4a):
    alg = m4a.algebra
    new, ref = _records(alg, _v_axes(alg), f4a_rule())
    assert new == ref == [[]] * 3


def test_jordan_closure_matches_the_reference(m4a):
    alg = m4a.algebra
    vgens = _v_axes(alg)
    _, sub, coords = subalgebra_closure(alg, vgens)
    assert sub.table_den == POLY_T
    new, ref = _records(sub, [coords(v) for v in vgens], jordan_half_rule(QT))
    assert new == ref == [[]] * 3


def test_dihedral_types_match_the_reference(catalog):
    for d in catalog.values():
        new, ref = _records(d.algebra, d.axes, monster_rule())
        assert new == ref == [[]] * d.n_axes


def test_m4b_matches_the_reference(m4b):
    new, ref = _records(m4b.algebra, m4b.axes, monster_rule())
    assert new == ref == [[]] * 6


def test_quotient_at_zero_matches_the_reference():
    spec = specialize_m4a(0)
    qalg, _, project = quotient(spec.algebra, spec.form, radical(spec.form))
    assert qalg.field is QQ
    new, ref = _records(qalg, [project(ax) for ax in spec.axes],
                        monster_rule())
    assert new == ref == [[]] * 6


@pytest.mark.parametrize("pair, targets, count", [
    (("1/4", "1/4"), ("1",), 16),
    (("1/32", "1/32"), ("1", "0"), 2),
    (("0", "1/4"), ("0",), 20),
])
def test_tampered_rules_match_the_reference(m4a, pair, targets, count):
    new, ref = _records(m4a.algebra, m4a.axes[:2],
                        _tampered_rule(pair, targets))
    assert new == ref
    assert [len(r) for r in new] == [count, count]


@pytest.mark.parametrize("x, y, coord, delta, counts", [
    ("w_1", "w_2", "v_12", QT.of("1/1000"), [6, 6, 6, 6, 2, 2]),
    ("v_12", "w_3", "a_1", QT.t ** 2 / 7, [4, 2, 6, 6, 5, 5]),
])
def test_tampered_tables_match_the_reference(m4a, x, y, coord, delta,
                                             counts):
    bad = _tampered_table(m4a.algebra, x, y, coord, delta)
    new, ref = _records(bad, m4a.axes, monster_rule(QT))
    assert new == ref
    assert [len(r) for r in new] == counts


# ---------------------------------------------------------------------------
# the evaluation point lies past every root a violation could have
# ---------------------------------------------------------------------------

def _root_at(m):
    """a*a = a, a*b = 0 and b*b = (t - m) a over Q(t): the 0-eigenvector
    b squares into the 1-eigenspace, off the rule 0 * 0 = {0}, and the
    product vanishes at t = m only."""
    z, one = QT.zero, QT.one
    alg = Algebra(QT, ["a", "b"],
                  {(0, 0): (one, z), (0, 1): (z, z), (1, 1): (QT.t - m, z)})
    rule = FusionRule(QT, ("1", "0"), {("1", "1"): {"1"}, ("1", "0"): set(),
                                       ("0", "0"): {"0"}})
    return alg, axis_decomposition(alg, alg.basis_vector("a"),
                                   rule.eigenvalues), rule


# every power of two up to 2^200 covers each point a bound-free choice of
# a fixed power of two would pick; the neighbours and powers of ten cover
# choices one off it and decimal ones
_ROOTS = sorted({2 ** k + e for k in range(201) for e in (-1, 0, 1)}
                | {10 ** k for k in range(61)})


def test_a_violation_is_reported_whatever_its_root():
    for m in _ROOTS:
        alg, dec, rule = _root_at(m)
        records = verify_fusion(alg, dec, rule)
        assert records == verify_fusion_reference(alg, dec, rule), m
        assert len(records) == 1, m
        assert records[0]["eigenvalues"] == ("0", "0")


def test_a_violation_is_reported_past_the_factors_of_the_test():
    # ad_a = [[1, -16, 72], [0, -16, 72], [0, -4, 18]] has eigenvectors a
    # (1), 9b + 2c (0) and w = 8a + 4b + c (2).  Here
    # w*w = (t + 192) a + 128 b + 3672 c, whose 1-component is
    # (t - 2^18) a, off the rule 2 * 2 = {0, 2}.  A bound on the product
    # alone, U^2 W = 13^2 * 455 < 2^17 (U the l1 norm summed over an
    # eigenvector, W that of a table numerator), would put the point on
    # the root 2^18; the lemma's counts take in the factors (ad_a - nu)
    # of the test as well.
    z, c = QT.zero, QT.of
    alg = Algebra(QT, ["a", "b", "c"], {
        (0, 0): (c(1), z, z), (0, 1): (c(-16), c(-16), c(-4)),
        (0, 2): (c(72), c(72), c(18)), (1, 1): (z, z, z),
        (1, 2): (z, z, c(455)), (2, 2): (QT.t, z, z)})
    evs = ("1", "0", "2")
    table = {(x, y): set(evs) for x in evs for y in evs}
    table[("2", "2")] = {"0", "2"}
    rule = FusionRule(QT, evs, table)
    dec = axis_decomposition(alg, alg.basis_vector("a"), rule.eigenvalues)
    records = verify_fusion(alg, dec, rule)
    assert records == verify_fusion_reference(alg, dec, rule)
    assert [r["product"] for r in records] == [
        "(t + 192)*a + (128)*b + (3672)*c"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=8),
       st.integers(0, 40))
def test_evaluation_past_the_bound_is_zero_iff_the_polynomial_is(c, slack):
    bound = max(map(abs, c), default=0) << slack
    at = _at(tuple(c), 1 << (bound.bit_length() + 1))
    assert (at == 0) == (not any(c))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 80), st.lists(st.integers(-50, 50), min_size=1,
                                         max_size=5))
def test_a_root_at_the_bound_is_cleared(r, g):
    # (t - r) * g has a coefficient of size at least r, so its bound puts
    # the point past r
    c = [0] * (len(g) + 1)
    for i, x in enumerate(g):
        c[i] -= r * x
        c[i + 1] += x
    bound = max(map(abs, c))
    at = _at(tuple(c), 1 << (bound.bit_length() + 1))
    assert (at == 0) == (not any(g))
