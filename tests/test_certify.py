"""Certification layer: Gram determinant/LDLT closed forms, interval
certificates, definiteness and Norton grids, Majorana verdicts, quotients,
the 4A-axis fusion rule and eigenspace orthogonality."""

import pytest

from axia import certify as cert
from axia import linalg, m4
from axia.algebra import Algebra, axis_decomposition, quotient, radical
from axia.catalog import DIHEDRAL_TYPES, dihedral, f4a_rule, monster_rule
from axia.linalg import Matrix, ldlt, span_rref
from axia.m4 import reference_v_eigenvectors, specialize_m4a
from axia.scalars import QQ, QT, rat

import axial_reference
from conftest import rf, tamper_m4a_seed
from elimination_reference import in_span
from norton_reference import norton_block_reference, norton_matrix

MONSTER_EVS = tuple(QQ.of(x) for x in ("1", "0", "1/4", "1/32"))


# ---------------------------------------------------------------------------
# Gram determinant and LDLT diagonal  [PUBLISHED]
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gram_data():
    det, diag = cert.gram_analysis()
    return det, diag


def test_gram_determinant_closed_form(gram_data):
    det, _ = gram_data
    assert det == cert.gram_det_closed_form()
    # structural spot check of the closed form itself:
    # deg(num) = 12, roots exactly {0, 1/6, 9/4}
    assert det.num.degree == 12
    assert det.num(rat(0)) == 0
    assert det.num(rat("1/6")) == 0
    assert det.num(rat("9/4")) == 0
    assert det.num(rat("1/12")) != 0


def test_determinant_equals_product_of_ldlt_diagonal(gram_data):
    det, diag = gram_data
    prod = QT.one
    for d in diag:
        prod = prod * d
    assert prod == det


# published LDLT diagonal entries, as printed (ascending coefficients)
PUBLISHED_DIAGONAL = [
    rf(("1",)),
    rf(("1",)),
    rf(("511/512",)),
    rf(("510/511",)),
    rf(("271/272",)),
    rf(("270/271",)),
    # r1 = -272/135 t^2 + 8/45 t + 22/15
    rf(("22/15", "8/45", "-272/135")),
    # r2
    rf(("1053/2048", "171/256", "-717/128", "1/16", "1"),
       ("1485/4096", "45/1024", "-255/512")),
    # r3
    rf(("81/128", "-9/32", "-171/16", "5/2", "1"),
       ("117/256", "-33/32", "-1/2")),
    # r4
    rf(("0", "-9/32", "15/8", "-7/9", "-9/4", "1"),
       ("-9/8", "0", "19", "4")),
    # r5
    rf(("0", "-15/64", "33/32", "613/216", "-133/36", "1"),
       ("-1", "-34/9", "20/9", "16/3")),
    # r6
    rf(("0", "-27/32", "93/16", "-14/3", "1"),
       ("-15/4", "-23/3", "6")),
]


def test_ldlt_diagonal_matches_published_table(gram_data):
    _, diag = gram_data
    assert len(diag) == 12
    assert list(diag) == PUBLISHED_DIAGONAL


# ---------------------------------------------------------------------------
# interval certificates on [0, 1/6]
# ---------------------------------------------------------------------------

def test_interval_certificates_on_definiteness_interval(gram_data):
    _, diag = gram_data
    certs = cert.certify_psd_interval(diag)
    verdicts = [c.verdict for c in certs]
    assert all(v != cert.IntervalCertificate.FAILS for v in verdicts)
    # the six constant entries and r1..r3 have no roots touching [0, 1/6]
    assert verdicts[:9] == [cert.IntervalCertificate.POSITIVE] * 9
    # r4..r6 vanish exactly at the endpoints
    assert verdicts[9:] == [cert.IntervalCertificate.NONNEGATIVE] * 3
    for c in certs[9:]:
        w = c.witnesses
        assert w["num_interior_roots"] == 0
        assert w["num_root_at_endpoints"] == [True, True]
        assert w["den_root_at_endpoints"] == [False, False]


def test_certify_interval_detects_sign_change():
    # t - 1/12 changes sign on [0, 1/6]
    f = QT.t - QT.of("1/12")
    c = cert.certify_interval(f, "0", "1/6")
    assert c.verdict == cert.IntervalCertificate.FAILS
    assert c.witnesses["num_interior_roots"] == 1


def test_certify_interval_rejects_interior_pole():
    f = QT.one / (QT.t - QT.of("1/12"))
    c = cert.certify_interval(f, "0", "1/6")
    assert c.verdict == cert.IntervalCertificate.FAILS
    assert c.witnesses["den_interior_roots"] == 1


def test_certify_interval_json_roundtrippable():
    c = cert.certify_interval(QT.t + 1, "0", "1/6")
    d = c.to_json()
    assert d["verdict"] == "POSITIVE"
    assert d["interval"] == ["0", "1/6"]


@pytest.mark.parametrize("f", [QT.t, QT.of(2), QT.t + 1, QT.zero],
                         ids=["root-at-b", "constant", "no-root", "zero"])
@pytest.mark.parametrize("a, b", [("1/6", "0"), ("0", "0")],
                         ids=["reversed", "empty"])
def test_certify_interval_needs_a_below_b(f, a, b):
    with pytest.raises(ValueError):
        cert.certify_interval(f, a, b)


# ---------------------------------------------------------------------------
# definiteness grid  [PUBLISHED]: PD iff t in (0, 1/6), PSD iff t in [0, 1/6]
# ---------------------------------------------------------------------------

GRID_EXPECT = {
    "-1/10": (False, False, 0), "-1/100": (False, False, 0),
    "0": (False, True, 3), "1/24": (True, True, 0), "1/12": (True, True, 0),
    "1/8": (True, True, 0), "1/6": (False, True, 3), "9/50": (False, False, 0),
    "1/5": (False, False, 0), "1": (False, False, 0), "2": (False, False, 0),
    "9/4": (False, False, 5),
}


def test_definiteness_grid():
    report = cert.definiteness_report()
    assert len(report) == 12
    for row in report:
        pd, psd, rad = GRID_EXPECT[row["t0"]]
        assert (row["pd"], row["psd"], row["radical_dim"]) == (pd, psd, rad), \
            f"at t0 = {row['t0']}"


def test_radical_dimension_points():
    assert cert.radical_dimension(rat(0)) == 3
    assert cert.radical_dimension(rat("1/6")) == 3
    assert cert.radical_dimension(rat("9/4")) == 5
    assert cert.radical_dimension(rat("1/12")) == 0


# ---------------------------------------------------------------------------
# Norton's inequality
# ---------------------------------------------------------------------------

def test_norton_matrix_structure():
    d = dihedral("2B")
    b = norton_matrix(d.algebra, d.form)
    n = d.algebra.dim
    assert b.rows == b.cols == n * n
    assert b == b.transpose()
    # rows indexed by equal pairs (i, i) are identically zero
    for i in range(n):
        r = i * n + i
        assert all(QQ.is_zero(x) for x in b.data[r])
    # the associative 2B algebra satisfies Norton  [DERIVED sanity]
    assert ldlt(b).is_psd()


def test_norton_matrix_matches_direct_formula(m4b):
    # b[(i,j),(k,l)] = <e_i e_k, e_j e_l> - <e_j e_k, e_i e_l> entry by
    # entry through Algebra.mul and BilinearForm.apply  [DERIVED]
    alg, form = m4b.algebra, m4b.form
    n = alg.dim
    b = norton_matrix(alg, form)
    e = [alg.basis_vector(lab) for lab in alg.labels]
    prods = [[alg.mul(e[i], e[k]) for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    want = (form.apply(prods[i][k], prods[j][l])
                            - form.apply(prods[j][k], prods[i][l]))
                    assert b.data[i * n + j][k * n + l] == want


def assert_same_block(alg, form):
    """The one ungraded block of norton_blocks equals the field-arithmetic
    reference entry for entry, with the same scalar type and normal
    form."""
    (fast,) = cert.norton_blocks(alg, form, [0] * alg.dim)
    ref = norton_block_reference(alg, form)
    assert fast.rows == ref.rows == alg.dim * (alg.dim - 1) // 2
    for fast_row, ref_row in zip(fast.data, ref.data):
        assert fast_row == ref_row
        assert [repr(x) for x in fast_row] == [repr(x) for x in ref_row]
    return fast


@pytest.mark.parametrize("t0", ["0", "1/6", "-1/100", "9/50", "9/4",
                                "-1279/9327841211"])
def test_norton_block_matches_reference_on_m4a_points(t0):
    spec = specialize_m4a(rat(t0))
    block = assert_same_block(spec.algebra, spec.form)
    assert all(type(x) is type(QQ.zero) for row in block.data for x in row)


def test_norton_block_matches_reference_over_function_field(m4a):
    block = assert_same_block(m4a.algebra, m4a.form)
    assert block.field is QT


@pytest.mark.parametrize("t0", ["0", "1/6"])
def test_norton_block_matches_reference_on_quotients(t0):
    spec = specialize_m4a(rat(t0))
    qalg, qform, _ = quotient(spec.algebra, spec.form, radical(spec.form))
    assert qalg.dim == 9
    assert_same_block(qalg, qform)


def test_norton_block_matches_reference_on_m4b_and_catalog(m4b, catalog):
    for built in [m4b] + [catalog[name] for name in DIHEDRAL_TYPES]:
        assert_same_block(built.algebra, built.form)


@pytest.mark.parametrize("t0", ["0", "1/12", "1/6", "9/50", "9/4"])
def test_norton_block_ldlt_matches_full_ldlt(t0):
    spec = specialize_m4a(rat(t0))
    n = spec.algebra.dim
    full = ldlt(norton_matrix(spec.algebra, spec.form))
    (block,) = cert.norton_blocks(spec.algebra, spec.form, [0] * n)
    block = ldlt(block)
    assert block.is_psd() == full.is_psd() == cert.norton_check(rat(t0))
    pivots = iter(block.D)
    interleaved = [next(pivots) if i < j else QQ.zero
                   for i in range(n) for j in range(n)]
    assert list(full.D) == interleaved


def test_norton_point_verdicts():
    assert cert.norton_check(rat("1/12")) is True
    assert cert.norton_check(rat("1/4")) is False


def _symbolic_block(corner):
    """A 66 x 66 matrix over Q(t): the given leading block, then t."""
    t = QT.t
    n = 66
    data = [[QT.zero] * n for _ in range(n)]
    for i in range(n):
        data[i][i] = t
    for i, row in enumerate(corner):
        data[i][:len(row)] = row
    return Matrix(QT, data)


def test_norton_symbolic_maps_failures_to_144_space(monkeypatch):
    t = QT.t
    z = QT.zero
    # a zero pivot with a nonzero entry below it: indefinite
    monkeypatch.setattr(cert, "norton_blocks",
                        lambda alg, form, grades:
                        [_symbolic_block([[z, t], [t, z]])])
    rep = cert.norton_symbolic()
    assert rep["status"] == "FAILED_INDEFINITE"
    assert rep["diagonal"] == [z] and rep["columns_processed"] == 1
    # a full run: 66 pivots at the pairs i < j, zeros at i >= j
    monkeypatch.setattr(cert, "norton_blocks",
                        lambda alg, form, grades: [_symbolic_block([])])
    rep = cert.norton_symbolic()
    assert rep["status"] == "COMPLETE" and rep["columns_processed"] == 144
    assert rep["diagonal"] == [t if i < j else z
                               for i in range(12) for j in range(12)]


# ---------------------------------------------------------------------------
# Majorana verdicts and boundary quotients  [PUBLISHED]
# ---------------------------------------------------------------------------

def test_majorana_verdicts():
    v = cert.majorana_certify("1/12")
    assert v.is_majorana and v.gram_pd and v.norton_psd
    assert cert.majorana_certify("-1/10").is_majorana is False
    bad = cert.majorana_certify("1/5")
    assert not bad.is_majorana and not bad.gram_pd
    assert v.to_json()["t0"] == "1/12"


def test_quotient_at_boundary_points():
    for t0 in ("0", "1/6"):
        report = cert.quotient_certify(t0)
        assert report["pass"], report
        assert report["quotient_dim"] == 9
        assert report["gram_pd"] and report["norton_psd"]
        assert report["fusion_ok"]


def test_quotient_certify_rejects_interior_point():
    report = cert.quotient_certify("1/12")
    assert not report["pass"]
    assert report["radical_dim"] == 0


# ---------------------------------------------------------------------------
# 4A-axis certification
# ---------------------------------------------------------------------------

def test_f4a_grading():
    from axia.catalog import f4a_rule
    from axia.algebra import verify_grading
    assert verify_grading(f4a_rule(), cert.f4a_grading())


def test_f4a_grading_rejects_a_wrong_assignment():
    from axia.catalog import f4a_rule
    from axia.algebra import verify_grading
    grading = dict(cert.f4a_grading())
    grading[QT.of("1/2")] = 1       # 1/2 * 3/8 -> {3/8} needs 1 == 1 ^ 1
    assert not verify_grading(f4a_rule(), grading)


@pytest.mark.parametrize("name,dropped", [
    (name, dropped) for name in DIHEDRAL_TYPES
    for dropped in ("tau_0", "swap_01")
    # for n = 2, k -> -k fixes both axes and swap_01 alone is transitive
    if (name, dropped) not in (("2A", "tau_0"), ("2B", "tau_0"))])
def test_verify_dihedral_orbit_needs_both_generators(name, dropped,
                                                      monkeypatch):
    def without_one_generator(name):
        d = dihedral(name)
        d.symmetries = {k: g for k, g in d.symmetries.items()
                        if k != dropped}
        return d
    monkeypatch.setattr(cert, "dihedral", without_one_generator)
    report = cert.verify_dihedral(name)
    assert not report["pass"]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == [
        "axis orbit size"]


def test_v4a_eigenvalue_spot_checks(m4a):
    alg = m4a.algebra
    t = QT.t
    v12 = alg.basis_vector("v_12")
    # a_3 - a_-3 is a t-eigenvector of ad_{v_12}  [PUBLISHED]
    d = tuple(x - y for x, y in zip(alg.basis_vector("a_3"),
                                    alg.basis_vector("a_-3")))
    assert alg.mul(v12, d) == tuple(t * x for x in d)
    # a_1 - a_-1 is a 3/8-eigenvector  [PUBLISHED]
    d = tuple(x - y for x, y in zip(alg.basis_vector("a_1"),
                                    alg.basis_vector("a_-1")))
    assert alg.mul(v12, d) == tuple(QT.of("3/8") * x for x in d)


def test_v4a_builds_its_jordan_closure_table_once(monkeypatch, m4a):
    # the closure's last round of products is the subalgebra's table, so
    # the table costs no product or elimination beyond the closure's own;
    # the closure is cached with M_4A, so a second call builds none
    monkeypatch.setattr(m4, "_M4A_CACHE", {"build": m4a})
    counts = {"mul": 0, "eliminate": 0}
    mul, eliminate = Algebra.mul, linalg._eliminate

    def counting_mul(self, u, v):
        counts["mul"] += 1
        return mul(self, u, v)

    def counting_eliminate(m):
        counts["eliminate"] += 1
        return eliminate(m)
    monkeypatch.setattr(Algebra, "mul", counting_mul)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    assert cert.v4a_certify()["pass"] is True
    assert counts == {"mul": 131, "eliminate": 12}
    counts.update(mul=0, eliminate=0)
    assert cert.v4a_certify()["pass"] is True
    assert counts == {"mul": 59, "eliminate": 8}


def test_a_tampered_build_rebuilds_its_jordan_closure(monkeypatch):
    # a clean run caches the closure; a rebuild from tampered seeds
    # (v_12 v_13 gains v_23 / 1000) must not check the old one, so the
    # report equals the reference's, which builds its closure directly
    assert cert.v4a_certify()["pass"] is True
    stale = m4.jordan_m4a()
    tamper_m4a_seed(monkeypatch, ("v_12", "v_13"), "v_23")
    report = cert.v4a_certify()
    assert m4.jordan_m4a() is not stale
    assert report == axial_reference.v4a_certify()
    assert not [c for c in report["checks"]
                if c["name"] == "jordan fusion on closure"][0]["pass"]


def test_the_jordan_closure_is_built_on_first_use_only(monkeypatch):
    calls = []
    closure = m4.subalgebra_closure

    def counting(*args):
        calls.append(args)
        return closure(*args)
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    monkeypatch.setattr(m4, "subalgebra_closure", counting)
    m4a = m4.build_m4a()
    assert calls == [] and m4._M4A_CACHE == {"build": m4a}
    first = m4.jordan_m4a()
    assert m4.jordan_m4a() is first and len(calls) == 1
    assert len(first[0]) == 9
    m4._M4A_CACHE.clear()
    assert m4._M4A_CACHE == {}
    assert m4.jordan_m4a() is not first and len(calls) == 2


def test_verify_m4a_decides_its_symmetries_on_integers(monkeypatch, m4a):
    # the products and images left are those of the one decomposition
    # per orbit; is_automorphism and verify_frobenius make none
    counts = {"mul": 0, "matvec": 0}
    mul, matvec = Algebra.mul, Matrix.matvec

    def counting_mul(self, u, v):
        counts["mul"] += 1
        return mul(self, u, v)

    def counting_matvec(self, v):
        counts["matvec"] += 1
        return matvec(self, v)
    monkeypatch.setattr(Algebra, "mul", counting_mul)
    monkeypatch.setattr(Matrix, "matvec", counting_matvec)
    assert cert.verify_m4a()["pass"] is True
    assert counts == {"mul": 16, "matvec": 30}


def _eigenspace_span_check(alg, axis, references, rule):
    """The published-eigenvector check as membership in the span of an
    eigenspace basis from axis_decomposition."""
    dec = axis_decomposition(alg, axis, rule.eigenvalues)
    for lam, vecs in references.items():
        basis, pivots = span_rref(alg.field, dec.spaces[lam])
        if not all(in_span(alg.field, basis, pivots, w) for w in vecs):
            return False
    return True


def _tampered_references(references, axis_index, delta):
    """Each way of adding delta to the axis coefficient of one published
    eigenvector; a * (w + delta a) = lam w + delta a, so none of them is an
    eigenvector for lam != 1."""
    for lam, vecs in references.items():
        for n, w in enumerate(vecs):
            bad = list(w)
            bad[axis_index] = bad[axis_index] + delta
            yield {**references, lam: vecs[:n] + [tuple(bad)] + vecs[n + 1:]}


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_tampered_dihedral_eigenvector_fails_reference_check(name, catalog):
    d = catalog[name]
    alg = d.algebra
    a0 = alg.basis_vector("a_0")
    refs = d.reference_eigenvectors
    assert cert._in_eigenspaces(alg, a0, refs)
    assert _eigenspace_span_check(alg, a0, refs, monster_rule())
    for bad in _tampered_references(refs, alg.index("a_0"), rat("1/7")):
        assert not cert._in_eigenspaces(alg, a0, bad)
        assert not _eigenspace_span_check(alg, a0, bad, monster_rule())


@pytest.mark.parametrize("i,j", [(1, 2), (1, 3), (2, 3)])
def test_tampered_v_eigenvector_fails_reference_check(i, j, m4a):
    alg = m4a.algebra
    lab = f"v_{i}{j}"
    v = alg.basis_vector(lab)
    refs = reference_v_eigenvectors(i, j)
    assert cert._in_eigenspaces(alg, v, refs)
    tampered = list(_tampered_references(refs, alg.index(lab), QT.of("1/7")))
    assert len(tampered) == 11
    for bad in tampered:
        assert not cert._in_eigenspaces(alg, v, bad)
    assert not _eigenspace_span_check(alg, v, tampered[0], f4a_rule())


# ---------------------------------------------------------------------------
# eigenspace orthogonality property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ("2A", "3A", "4A", "5A", "6A"))
def test_eigenspace_orthogonality_dihedral(name, catalog):
    d = catalog[name]
    dec = axis_decomposition(d.algebra, d.axes[d.axis_keys.index(0)],
                             MONSTER_EVS)
    assert cert.verify_eigenspace_orthogonality(d.algebra, d.form, dec) == []


def test_eigenspace_orthogonality_m4a(m4a):
    evs = tuple(QT.of(x) for x in ("1", "0", "1/4", "1/32"))
    dec = axis_decomposition(m4a.algebra, m4a.algebra.basis_vector("a_1"), evs)
    assert cert.verify_eigenspace_orthogonality(m4a.algebra, m4a.form,
                                                dec) == []


# ---------------------------------------------------------------------------
# radical structure at the degenerate points
# ---------------------------------------------------------------------------

def test_radical_is_an_ideal_at_boundary():
    from axia.m4 import specialize_m4a
    from ideal_reference import is_ideal
    spec = specialize_m4a(rat(0))
    rad = radical(spec.form)
    assert len(rad) == 3
    assert is_ideal(spec.algebra, rad)
