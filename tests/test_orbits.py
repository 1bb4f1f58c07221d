"""One axis per symmetry orbit: the verification suites, v4a_certify and
quotient_certify decompose one representative per orbit and copy its
passing rows along verified automorphisms.

Every report is compared byte for byte with the direct per-axis path in
axial_reference: on the built algebras, and with a generator that is no
automorphism, an is_automorphism verdict forced to False and a
representative that does not decompose.  The boundary quotients are
compared the same way, on tampered builds as well.  The decomposition
counts show which path ran.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import axial_reference as ref
from axia import certify as cert
from axia import m4
from axia.algebra import Algebra, BilinearForm, ConstructedAlgebra
from axia.catalog import DIHEDRAL_TYPES
from axia.cli import run
from axia.errors import NotSemisimple
from axia.linalg import Matrix, upper_pairs
from axia.scalars import QQ, QT

from conftest import tamper_m4a_seed

BENCH = Path(__file__).resolve().parents[1] / "bench"

SUITES = ([("verify_m4a", ()), ("verify_m4b", ()), ("v4a_certify", ())]
          + [("verify_dihedral", (name,)) for name in DIHEDRAL_TYPES])


def _bytes(report):
    """The report as serialize.dump_json writes it."""
    return json.dumps(report, indent=2) + "\n"


def _same_as_reference(suite, *args):
    new = getattr(cert, suite)(*args)
    assert _bytes(new) == _bytes(getattr(ref, suite)(*args))
    return new


def _recording(monkeypatch, module):
    """The axes that module's axis_decomposition is called on, in order."""
    axes = []
    decompose = module.axis_decomposition

    def recording(alg, a, eigenvalues):
        axes.append(tuple(a))
        return decompose(alg, a, eigenvalues)
    monkeypatch.setattr(module, "axis_decomposition", recording)
    return axes


def _with_symmetry(monkeypatch, name, op):
    """M_4A as built, with its symmetry generator name replaced by op."""
    m4a = m4.build_m4a()
    syms = {**m4a.symmetries, name: op}
    monkeypatch.setattr(m4, "_M4A_CACHE", {"build": ConstructedAlgebra(
        m4a.algebra, m4a.form, m4a.axis_keys, syms)})


@pytest.mark.parametrize("suite,args", SUITES,
                         ids=[f"{s}{''.join(a)}" for s, a in SUITES])
def test_reports_equal_the_direct_path(suite, args):
    _same_as_reference(suite, *args)


def test_the_direct_path_decomposes_every_m4a_axis(monkeypatch):
    direct = _recording(monkeypatch, ref)
    orbit = _recording(monkeypatch, cert)
    _same_as_reference("verify_m4a")
    axes = m4.build_m4a().axes
    assert direct == [tuple(a) for a in axes]
    assert orbit == [tuple(axes[0])]


def _bench_round(workload, out_dir):
    """One round of the benchmark's operations on workload, in process."""
    saved = sys.path[:]
    sys.path.insert(0, str(BENCH))
    try:
        worker = importlib.import_module("worker")
    finally:
        sys.path[:] = saved
    mods = {layer: importlib.import_module(f"axia.{layer}")
            for layer in worker.LAYERS}
    for op in worker.OPS[workload](mods, out_dir, 1):
        assert op.call() == 0, op.name


@pytest.mark.parametrize("workload,count", [("m4a-symbolic", 3),
                                            ("point-grid", 11)])
def test_a_bench_round_decomposes_one_axis_per_orbit(monkeypatch, tmp_path,
                                                     workload, count):
    # m4a-symbolic: one a_k for verify m4a and one v_ij each in M_4A and
    # in its Jordan closure (12 on the direct path); point-grid: one
    # quotient axis at each of 0 and 1/6, one M_4B axis and one axis per
    # dihedral type (47)
    axes = _recording(monkeypatch, cert)
    _bench_round(workload, tmp_path)
    assert len(axes) == count


def _broken(op):
    """op with the image of its last basis vector doubled: it moves every
    other basis vector as op does, but it is no automorphism."""
    two = op.field.of(2)
    return Matrix(op.field, [row[:-1] + [two * row[-1]] for row in op.data])


def test_a_generator_that_is_no_automorphism_carries_nothing(monkeypatch):
    sigma = m4.build_m4a().symmetries["sigma"]
    _with_symmetry(monkeypatch, "sigma", _broken(sigma))
    axes = _recording(monkeypatch, cert)
    rows = {c["name"]: c for c in _same_as_reference("verify_m4a")["checks"]}
    assert rows["sigma automorphism+isometry"]["actual"] is False
    # a_1 reaches a_-1, a_2 and a_-2 by the tau_i and pi; a_3 is checked
    assert len(axes) == 2
    del axes[:]
    _same_as_reference("v4a_certify")
    assert len(axes) == 6


def test_a_rejected_generator_changes_only_its_own_row(monkeypatch):
    sigma = m4.build_m4a().symmetries["sigma"]
    is_automorphism = cert.is_automorphism

    def rejecting(alg, T, form):
        return T is not sigma and is_automorphism(alg, T, form)
    monkeypatch.setattr(cert, "is_automorphism", rejecting)
    new, old = cert.verify_m4a(), ref.verify_m4a()
    differ = [a["name"] for a, b in zip(new["checks"], old["checks"])
              if a != b]
    assert differ == ["sigma automorphism+isometry"]
    assert len(new["checks"]) == len(old["checks"])
    axes = _recording(monkeypatch, cert)
    _same_as_reference("v4a_certify")
    assert len(axes) == 6


def test_a_representative_that_does_not_decompose_carries_nothing(
        monkeypatch):
    a_1 = tuple(m4.build_m4a().axes[0])
    for module in (cert, ref):
        decompose = module.axis_decomposition

        def failing(alg, a, eigenvalues, decompose=decompose):
            if tuple(a) == a_1:
                raise NotSemisimple("eigenspace dims [1] sum to 1 != 12")
            return decompose(alg, a, eigenvalues)
        monkeypatch.setattr(module, "axis_decomposition", failing)
    axes = _recording(monkeypatch, cert)
    rows = {c["name"]: c for c in _same_as_reference("verify_m4a")["checks"]}
    assert rows["a_1 decomposition"]["pass"] is False
    assert rows["a_-1 primitive"]["pass"] is True
    # a_1 fails; a_-1 is checked and carries to the other four
    assert len(axes) == 2


@pytest.mark.parametrize("suite,pair,label", [
    ("verify_m4a", ("a_1", "a_2"), "v_12"),
    ("v4a_certify", ("v_12", "v_13"), "v_23"),
    ("v4a_certify", ("v_12", "v_12"), "v_12"),
], ids=["m4a-not-semisimple", "v4a-not-semisimple", "v4a-not-idempotent"])
def test_failing_rows_come_from_direct_checks(monkeypatch, suite, pair,
                                              label):
    # every axis of the tampered algebra fails, each with its own row: in
    # the not-idempotent case each message names its own v_ij
    tamper_m4a_seed(monkeypatch, pair, label)
    report = _same_as_reference(suite)
    assert report["pass"] is False


def _two_axes_one_not_primitive():
    """a_1 and a_2 are idempotents; a_2 also fixes b = b.b, so a_1 is
    primitive and a_2 is not.  The swap a_1 <-> a_2 is no automorphism."""
    def vec(*xs):
        return tuple(QQ.of(x) for x in xs)
    products = {p: vec(0, 0, 0) for p in upper_pairs(3)}
    products.update({(0, 0): vec(1, 0, 0), (1, 1): vec(0, 1, 0),
                     (1, 2): vec(0, 0, 1), (2, 2): vec(0, 0, 1)})
    alg = Algebra(QQ, ["a_1", "a_2", "b"], products)
    form = BilinearForm(QQ, {p: QQ.of(int(p[0] == p[1]))
                             for p in upper_pairs(3)})
    swap = Matrix(QQ, [vec(0, 1, 0), vec(1, 0, 0), vec(0, 0, 1)])
    return ConstructedAlgebra(alg, form, [1, 2], {"swap": swap})


def test_an_unverified_generator_carries_no_passing_row(monkeypatch):
    built = _two_axes_one_not_primitive()
    for module in (cert, ref):
        monkeypatch.setattr(module, "build_m4b", lambda: built)
    rows = {c["name"]: c for c in _same_as_reference("verify_m4b")["checks"]}
    assert rows["a_1 primitive"]["pass"] is True
    assert rows["a_2 primitive"]["pass"] is False


def test_sigma_restricts_to_an_automorphism_of_the_jordan_closure():
    m4a = m4.build_m4a()
    alg = m4a.algebra
    vgens = [alg.basis_vector(f"v_{p}") for p in ("12", "13", "23")]
    closure, sub, coords = cert.subalgebra_closure(alg, vgens)
    sigma = m4a.symmetries["sigma"]
    R = Matrix(QT, list(zip(*(coords(sigma.matvec(c)) for c in closure))))
    for c in closure:
        assert R.matvec(coords(c)) == coords(sigma.matvec(c))
    cols = [tuple(row[i] for row in R.data) for i in range(sub.dim)]
    for i, j in upper_pairs(sub.dim):
        assert R.matvec(sub.mul_table[i][j]) == sub.mul(cols[i], cols[j])
    assert [R.matvec(coords(v)) for v in vgens] == [
        coords(v) for v in (vgens[2], vgens[0], vgens[1])]


# ---------------------------------------------------------------------------
# the boundary quotients, under the graded generators
# ---------------------------------------------------------------------------

QUOTIENT_POINTS = ("0", "1/6", "9/4")


def _quotient_counts(monkeypatch):
    """The number of axes quotient_certify decomposes at each of the
    QUOTIENT_POINTS, asserting that each report equals the direct path's."""
    axes = _recording(monkeypatch, cert)
    counts = []
    for t0 in QUOTIENT_POINTS:
        start = len(axes)
        new = cert.quotient_certify(t0)
        counts.append(len(axes) - start)
        assert _bytes(new) == _bytes(ref.quotient_certify(t0))
    return counts


def test_the_graded_generators_are_constant_signed_permutations():
    one = QQ.one
    for name, g in m4.graded_m4a().symmetries.items():
        assert all(x.is_constant() for row in g.data for x in row)
        nonzero = [[(j, x.as_rational()) for j, x in enumerate(row)
                    if not x.is_zero()] for row in g.data]
        assert all(len(row) == 1 for row in nonzero)
        assert sorted(j for row in nonzero for j, _ in row) == list(range(12))
        signs = {c for row in nonzero for _, c in row}
        assert signs == ({one} if name in ("sigma", "pi") else {one, -one})


def test_quotient_reports_equal_the_direct_path(monkeypatch):
    # the six quotient axes are one orbit at each boundary point; at 9/4
    # the radical has dimension 5 and no axis is checked
    assert _quotient_counts(monkeypatch) == [1, 1, 0]


def test_certify_quotient_decomposes_one_axis_per_point(monkeypatch,
                                                        tmp_path):
    axes = _recording(monkeypatch, cert)
    out = str(tmp_path / "quotient.json")
    assert run(["certify", "quotient", "--grid=0,1/6", "--out", out]) == 0
    assert len(axes) == 2


@pytest.mark.parametrize("pair,label", [
    (("a_1", "a_1"), "v_23"), (("a_1", "a_2"), "v_12"),
    (("v_12", "v_12"), "v_12"), (("v_12", "v_13"), "v_23"),
], ids=["not-idempotent", "not-semisimple", "fusion", "norton"])
def test_quotients_of_tampered_builds_equal_the_direct_path(monkeypatch,
                                                             pair, label):
    # at 0 the quotient of each tampered build fails: every axis, none of
    # which passes, comes from a direct check
    tamper_m4a_seed(monkeypatch, pair, label)
    assert _quotient_counts(monkeypatch)[0] == 6
    assert cert.quotient_certify("0")["pass"] is False


def _with_graded_symmetry(monkeypatch, name, op):
    """graded_m4a as built, with its generator name replaced by op."""
    graded = m4.graded_m4a()
    monkeypatch.setattr(m4, "_M4A_CACHE", {
        "build": m4.build_m4a(),
        "graded": ConstructedAlgebra(
            graded.algebra, graded.form, graded.axis_keys,
            {**graded.symmetries, name: op}, grades=graded.grades,
            axes=graded.axes)})


@pytest.mark.parametrize("name", ["tau_1", "tau_2", "tau_3", "sigma", "pi"])
def test_a_broken_graded_generator_carries_nothing(monkeypatch, name):
    _with_graded_symmetry(monkeypatch, name,
                          _broken(m4.graded_m4a().symmetries[name]))
    verdicts = []
    is_automorphism = cert.is_automorphism

    def recording(alg, T, form):
        verdicts.append(is_automorphism(alg, T, form))
        return verdicts[-1]
    monkeypatch.setattr(cert, "is_automorphism", recording)
    counts = _quotient_counts(monkeypatch)
    assert False in verdicts
    # without sigma, a_1 reaches a_-1, a_2 and a_-2 by the tau_i and pi,
    # and a_3 is checked; the others leave one orbit
    assert counts == ([2, 2, 0] if name == "sigma" else [1, 1, 0])


def test_no_verified_generator_checks_every_quotient_axis(monkeypatch):
    monkeypatch.setattr(cert, "is_automorphism", lambda alg, T, form: False)
    assert _quotient_counts(monkeypatch) == [6, 6, 0]
