"""Point verdicts read off the signs of the family's pivots over Q(t).

Definiteness, the radical, Norton and Majorana at a point read the signs
at t0 of the cached LDLT pivots of the Gram matrix and of the four
graded Norton blocks (certify._definiteness).  They are checked here
against the verdicts on the original basis in tests/norton_reference.py,
and counted: at a point that is no pole nothing is built or eliminated
at t0, and at each rational pole, or after a factorisation that did not
complete, the one fallback decides the point at t0.
"""

import random
from fractions import Fraction

import pytest

from axia import certify as cert
from axia import linalg, m4
from axia.algebra import Algebra, BilinearForm
from axia.linalg import LDLTResult, Matrix, Pivots
from axia.scalars import rat
from conftest import bench_workloads

import norton_reference
from norton_reference import gram_pd_reference, norton_check_reference

# the rational poles of the factorisations: -1/4 and 3/8 of the Gram
# matrix's, and -7/8, -1/4 and 3/8 of the Norton blocks'
POLES = {"-1/4": {"gram", "norton"}, "3/8": {"gram", "norton"},
         "-7/8": {"norton"}}
ZEROS = ("0", "1/6", "9/4")


def _random_points(count, seed=20261020):
    """count rationals in [-3, 3], over denominators of 1 to 2 digits and
    of 9 to 12 digits in turn."""
    rng = random.Random(seed)
    points = []
    for k in range(count):
        q = (rng.randint(1, 99) if k % 2 else
             rng.randint(10 ** 8, 10 ** 12 - 1))
        points.append(Fraction(rng.randint(-3 * q, 3 * q), q))
    return points


DIFFERENTIAL = tuple(dict.fromkeys(
    [rat(p) for p in cert.DEFAULT_GRID]
    + [rat(p) for seed in (1, 2, 3)
       for p in bench_workloads().seeded_points(seed)]
    + [rat(p) for p in (*POLES, *ZEROS)]
    + _random_points(56)))


@pytest.mark.parametrize("t0", DIFFERENTIAL, ids=str)
def test_point_verdicts_equal_the_reference(t0):
    (row,) = cert.definiteness_report([t0])
    assert ((row["pd"], row["psd"], row["radical_dim"])
            == norton_reference.definiteness_at(t0))
    assert (cert.radical_dimension(t0)
            == norton_reference.radical_dimension(t0))
    norton = norton_check_reference(t0)
    assert cert.norton_check(t0) is norton
    v = cert.majorana_certify(t0)
    assert (v.gram_pd, v.norton_psd) == (gram_pd_reference(t0), norton)


def test_the_differential_set_is_large_enough():
    assert len(DIFFERENTIAL) >= 12 + 18 + 6 + 50


@pytest.mark.parametrize("verdict", [
    lambda t0: cert.definiteness_report([t0]), cert.radical_dimension,
    cert.norton_check, cert.majorana_certify],
    ids=["definiteness", "radical", "norton", "majorana"])
def test_a_float_point_is_refused(verdict):
    with pytest.raises(TypeError, match="float"):
        verdict(0.1)


# ---------------------------------------------------------------------------
# what a verdict builds and eliminates at t0
# ---------------------------------------------------------------------------

def _all_verdicts(t0):
    cert.definiteness_report([t0])
    cert.radical_dimension(t0)
    cert.norton_check(t0)
    cert.majorana_certify(t0)


def _forbid_point_work(monkeypatch):
    """Make every LDLT, Norton block build, kernel and evaluation at a
    point raise; the factorisations over Q(t) are made first."""
    cert._family_pivots("gram")
    cert._family_pivots("norton")

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} at a point")
        return call
    for module, name in ((cert, "ldlt"), (linalg, "ldlt"),
                         (cert, "norton_blocks"), (cert, "kernel_basis")):
        monkeypatch.setattr(module, name, forbidden(name))
    for cls in (Algebra, BilinearForm, Matrix):
        monkeypatch.setattr(cls, "at", forbidden(f"{cls.__name__}.at"))


def test_no_verdict_works_at_a_point_that_is_no_pole(monkeypatch):
    points = (cert.DEFAULT_GRID + bench_workloads().seeded_points(1)
              + ("1/2", "1", "-1279/9327841211"))
    _forbid_point_work(monkeypatch)
    for t0 in points:
        _all_verdicts(t0)
    # a control: at a pole the fallback evaluates the matrices there
    with pytest.raises(AssertionError, match="at a point"):
        cert.norton_check("3/8")


def _recording_fallbacks(monkeypatch):
    """The names of the families that the fallback evaluates at a
    point, one per fallback."""
    names = []
    family = cert._family_matrices

    def recording(name, t0=None):
        if t0 is not None:
            names.append(name)
        return family(name, t0)
    monkeypatch.setattr(cert, "_family_matrices", recording)
    return names


@pytest.mark.parametrize("t0", sorted(POLES))
def test_the_fallback_runs_at_each_rational_pole(monkeypatch, t0):
    names = _recording_fallbacks(monkeypatch)
    assert cert.norton_check(t0) is False
    (row,) = cert.definiteness_report([t0])
    assert set(names) == POLES[t0]
    assert (row["pd"], row["psd"], row["radical_dim"]) == (False, False, 0)


@pytest.mark.parametrize("t0", ZEROS + ("1/12", "-1/10"))
def test_no_fallback_where_no_factorisation_has_a_pole(monkeypatch, t0):
    names = _recording_fallbacks(monkeypatch)
    _all_verdicts(t0)
    assert names == []


def test_the_form_only_verdicts_never_build_the_graded_algebra(monkeypatch):
    def forbidden():
        raise AssertionError("graded_m4a in a form-only verdict")
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    monkeypatch.setattr(m4, "graded_m4a", forbidden)
    monkeypatch.setattr(cert, "graded_m4a", forbidden)
    points = cert.DEFAULT_GRID + tuple(POLES)
    assert len(cert.definiteness_report(points)) == len(points)
    assert len(cert.radical_report(points)) == len(points)
    assert set(m4._M4A_CACHE) == {"build", "gram_pivots"}


def test_a_factorisation_that_failed_falls_back_to_the_point_path(
        monkeypatch):
    failed = Pivots(LDLTResult.FAILED_INDEFINITE, (), ())
    monkeypatch.setattr(m4, "_M4A_CACHE", {
        "build": m4.build_m4a(), "graded": m4.graded_m4a(),
        "gram_pivots": [failed], "norton_pivots": [failed] * 4})
    names = _recording_fallbacks(monkeypatch)
    for t0 in ("-1/10", "0", "1/12", "1/6", "9/4"):
        t0 = rat(t0)
        (row,) = cert.definiteness_report([t0])
        assert ((row["pd"], row["psd"], row["radical_dim"])
                == norton_reference.definiteness_at(t0))
        assert cert.norton_check(t0) is norton_check_reference(t0)
    assert names == ["gram", "norton"] * 5


def test_the_verdicts_read_the_cached_pivots(monkeypatch):
    # the Gram pivots negated: every point that is no pole now reads as
    # negative definite, with no radical
    (gram,) = cert._family_pivots("gram")
    negated = gram._replace(D=tuple(-d for d in gram.D))
    monkeypatch.setitem(m4._M4A_CACHE, "gram_pivots", [negated])
    assert cert.definiteness_report(["1/12", "0"]) == [
        {"t0": "1/12", "pd": False, "psd": False, "radical_dim": 0},
        {"t0": "0", "pd": False, "psd": False, "radical_dim": 3}]


def test_factorisations_are_made_once_and_go_with_the_build(monkeypatch):
    calls = []
    pivots = linalg.ldlt_pivots

    def counting(m):
        calls.append(m.rows)
        return pivots(m)
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    monkeypatch.setattr(cert, "ldlt_pivots", counting)
    m4a = m4.build_m4a()
    assert m4._M4A_CACHE == {"build": m4a}
    for t0 in ("0", "1/12", "2"):
        _all_verdicts(t0)
    cert.gram_report()
    assert sorted(calls) == [10, 10, 10, 12, 36]
    assert set(m4._M4A_CACHE) == {"build", "graded", "gram_pivots",
                                  "norton_pivots"}
    m4._M4A_CACHE.clear()
    cert.radical_dimension("0")
    assert sorted(calls) == [10, 10, 10, 12, 12, 36]


def test_gram_report_reads_the_cached_diagonal(monkeypatch):
    # the diagonal comes from the cache; the determinant is computed on
    # every call
    first = cert.gram_report()
    determinants = []
    determinant = cert.determinant

    def counting(m):
        determinants.append(m.rows)
        return determinant(m)

    def forbidden(m):
        raise AssertionError("ldlt in gram")
    monkeypatch.setattr(cert, "determinant", counting)
    monkeypatch.setattr(linalg, "ldlt", forbidden)
    assert cert.gram_report() == first
    assert cert.gram_report() == first
    assert determinants == [12, 12]
