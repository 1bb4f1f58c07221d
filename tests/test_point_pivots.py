"""Point verdicts read off the signs of the family's pivots over Q(t).

Definiteness, the radical, Norton and Majorana at a point read the signs
at t0 of the cached LDLT pivots of the Gram matrix and of the four
graded Norton blocks (certify._point_signs).  They are checked here
against the verdicts on the original basis in tests/norton_reference.py,
and counted: at a point that is no pole nothing is built or eliminated
at t0, and at each rational pole, or after a factorisation that did not
complete, the one fallback evaluates the factored matrix at t0 and
factors it there, with a kernel only for a Gram matrix whose LDLT fails.
"""

import random
from fractions import Fraction

import pytest

from axia import certify as cert
from axia import linalg, m4
from axia.algebra import Algebra, BilinearForm
from axia.linalg import LDLTResult, Matrix, reconstruct_ldlt
from axia.scalars import QQ, QT, rat
from conftest import bench_workloads

import norton_reference
from norton_reference import gram_pd_reference, norton_check_reference

# the rational poles of the factorisations: -1/4 and 3/8 of the Gram
# matrix's, and -7/8, -1/4 and 3/8 of the Norton blocks'
POLES = {"-1/4": {"gram", "norton"}, "3/8": {"gram", "norton"},
         "-7/8": {"norton"}}
ZEROS = ("0", "1/6", "9/4")
# the family of a factored matrix, by its size
FAMILY = {12: "gram", 36: "norton", 10: "norton"}


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
    """The sizes of the matrices that the fallback factors at a point,
    one per factorisation."""
    sizes = []
    factor = cert.ldlt

    def recording(m):
        if m.field is QQ:
            sizes.append(m.rows)
        return factor(m)
    monkeypatch.setattr(cert, "ldlt", recording)
    return sizes


@pytest.mark.parametrize("t0", sorted(POLES))
def test_the_fallback_runs_at_each_rational_pole(monkeypatch, t0):
    sizes = _recording_fallbacks(monkeypatch)
    assert cert.norton_check(t0) is False
    (row,) = cert.definiteness_report([t0])
    assert {FAMILY[k] for k in sizes} == POLES[t0]
    assert (row["pd"], row["psd"], row["radical_dim"]) == (False, False, 0)


@pytest.mark.parametrize("t0", ZEROS + ("1/12", "-1/10"))
def test_no_fallback_where_no_factorisation_has_a_pole(monkeypatch, t0):
    sizes = _recording_fallbacks(monkeypatch)
    _all_verdicts(t0)
    assert sizes == []


@pytest.mark.parametrize("t0", sorted(POLES))
def test_the_fallback_evaluates_the_factored_matrices(monkeypatch, t0):
    # at a pole the fallback reads each cached record's matrix at t0,
    # which is the one rebuilt from the graded algebra there; it builds
    # no algebra, form or Norton block at t0
    t0 = rat(t0)
    spec = m4.graded_m4a().at(t0)
    blocks = cert.norton_blocks(spec.algebra, spec.form, spec.grades)
    assert [r.m.at(t0) for r in cert._family_pivots("norton")] == blocks
    (gram,) = cert._family_pivots("gram")
    assert gram.m.at(t0) == m4.build_m4a().form.gram.at(t0)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} in the fallback")
        return call
    monkeypatch.setattr(cert, "norton_blocks", forbidden("norton_blocks"))
    for cls in (Algebra, BilinearForm):
        monkeypatch.setattr(cls, "at", forbidden(f"{cls.__name__}.at"))
    (row,) = cert.definiteness_report([t0])
    assert ((row["pd"], row["psd"], row["radical_dim"])
            == norton_reference.definiteness_at(t0))
    assert cert.norton_check(t0) is norton_check_reference(t0)


def test_a_kernel_only_for_a_gram_matrix_whose_point_ldlt_fails(
        monkeypatch):
    sizes = []
    kernel = cert.kernel_basis

    def counting(m):
        sizes.append(m.rows)
        return kernel(m)
    monkeypatch.setattr(cert, "kernel_basis", counting)
    for t0 in POLES:
        assert cert.norton_check(t0) is norton_check_reference(t0)
    assert sizes == []
    for t0 in ("3/8", "-1/4"):
        assert (cert.radical_dimension(t0)
                == norton_reference.radical_dimension(rat(t0)))
        assert sizes == [12]
        sizes.clear()
    # at -7/8 the Gram matrix has no pole, and at the zeros its signs
    # give the nullity
    for t0 in ("-7/8",) + ZEROS:
        cert.radical_dimension(t0)
    assert sizes == []


@pytest.mark.parametrize("t0", ["3/8", "-1/4"])
def test_the_gram_matrix_is_evaluated_once_at_its_poles(monkeypatch, t0):
    # the failed point LDLT and the kernel read one evaluation of the
    # factored Gram matrix
    cert._family_pivots("gram")
    sizes = []
    at = Matrix.at

    def counting(self, t0):
        sizes.append(self.rows)
        return at(self, t0)
    monkeypatch.setattr(Matrix, "at", counting)
    assert (cert.radical_dimension(t0)
            == norton_reference.radical_dimension(rat(t0)))
    assert sizes == [12]
    sizes.clear()
    (row,) = cert.definiteness_report([t0])
    assert row["radical_dim"] == norton_reference.radical_dimension(rat(t0))
    assert sizes == [12]


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


def _failed(records):
    """The records with their status set to FAILED_INDEFINITE."""
    return [LDLTResult(r.m, r.L, r.D, LDLTResult.FAILED_INDEFINITE)
            for r in records]


def test_a_factorisation_that_failed_falls_back_to_the_point_path(
        monkeypatch):
    for name in ("gram", "norton"):
        monkeypatch.setitem(m4._M4A_CACHE, f"{name}_pivots",
                            _failed(cert._family_pivots(name)))
    sizes = _recording_fallbacks(monkeypatch)
    points = ("-1/10", "0", "1/12", "1/6", "9/4")
    for t0 in points:
        t0 = rat(t0)
        (row,) = cert.definiteness_report([t0])
        assert ((row["pd"], row["psd"], row["radical_dim"])
                == norton_reference.definiteness_at(t0))
        assert cert.norton_check(t0) is norton_check_reference(t0)
    # each point factors the Gram matrix, and the Norton blocks up to the
    # first that is not PSD there, the block of 36 pairs first
    assert sizes.count(12) == sizes.count(36) == len(points)


def test_the_verdicts_read_the_cached_pivots(monkeypatch):
    # the Gram pivots negated: every point that is no pole now reads as
    # negative definite, with no radical
    (gram,) = cert._family_pivots("gram")
    negated = LDLTResult(gram.m, gram.L, [-d for d in gram.D], gram.status)
    monkeypatch.setitem(m4._M4A_CACHE, "gram_pivots", [negated])
    assert cert.definiteness_report(["1/12", "0"]) == [
        {"t0": "1/12", "pd": False, "psd": False, "radical_dim": 0},
        {"t0": "0", "pd": False, "psd": False, "radical_dim": 3}]


def test_each_cached_factorisation_reconstructs_its_matrix():
    # L diag(D) L^T = m over Q(t) for the Gram matrix and each Norton
    # block, with L unit lower triangular: the congruence that the signs
    # at a point rest on
    records = cert._family_pivots("gram") + cert._family_pivots("norton")
    assert [r.m.rows for r in records] == [12, 36, 10, 10, 10]
    for r in records:
        assert r.status == LDLTResult.COMPLETE
        assert r.m.field is QT
        assert reconstruct_ldlt(r) == r.m
        n = r.m.rows
        assert all(r.L.data[i][i] == QT.one for i in range(n))
        assert all(r.L.data[i][j] == QT.zero
                   for i in range(n) for j in range(i + 1, n))


def test_factorisations_are_made_once_and_go_with_the_build(monkeypatch):
    calls = []
    factor = cert.ldlt

    def counting(m):
        if m.field is QT:
            calls.append(m.rows)
        return factor(m)
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    monkeypatch.setattr(cert, "ldlt", counting)
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
