"""The C2 x C2-graded basis of M_4A and the point verdicts that read it.

The graded basis (m4.graded_m4a) is checked against the basis it should
be, its build against tampered involutions, tables and forms, and the
point verdicts (definiteness, radical, Norton, Majorana and the boundary
quotients) against the verdicts on the original basis in
tests/norton_reference.py.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axia import certify as cert
from axia import m4
from axia.algebra import (Algebra, BilinearForm, ConstructedAlgebra,
                          check_graded, graded_by_involutions, quotient,
                          radical)
from axia.errors import NotGraded
from axia.linalg import Matrix, upper_pairs
from axia.scalars import QQ, QT, rat

import norton_reference
from norton_reference import (gram_pd_reference, norton_block_reference,
                              norton_check_reference)

# the grid, the points where the theorems or the eigenvalue sets change,
# and points of low and high height on each side of 0 and 1/6
POINTS = cert.DEFAULT_GRID + ("0", "1/6", "9/4", "1/2", "3/8", "1", "1/4",
                              "1/32", "7/103", "-5", "3",
                              "-1279/9327841211", "7/1000000007",
                              "1/6000000001", "166666666667/1000000000000")


def _graded_basis(m4a):
    """The expected graded basis as (grade, vector) over M_4A's labels:
    a_k + a_-k, v_ij and w_k - t a_k in grade 0, and a_-k - a_k in grades
    2, 1 and 3 for k = 1, 2, 3."""
    vec = m4a.algebra.vector
    t = QT.t
    basis = [(0, vec({f"a_{k}": 1, f"a_-{k}": 1})) for k in (1, 2, 3)]
    basis += [(0, vec({lab: 1})) for lab in ("v_12", "v_13", "v_23")]
    basis += [(0, vec({f"w_{k}": 1, f"a_{k}": -t})) for k in (1, 2, 3)]
    basis += [(g, vec({f"a_-{k}": 1, f"a_{k}": -1}))
              for g, k in ((1, 2), (2, 1), (3, 3))]
    return basis


def test_graded_basis_is_the_expected_one(m4a):
    # S, the expected basis as columns, maps the graded table to M_4A's
    # and carries its Gram matrix to the graded one: S x . S y = S (x y)
    # and S^T G S = G'
    graded = m4.graded_m4a()
    alg, form, grades, syms = (graded.algebra, graded.form, graded.grades,
                               graded.symmetries)
    axes = dict(zip(graded.axis_keys, graded.axes))
    expected = _graded_basis(m4a)
    assert grades == [g for g, _ in expected]
    S = Matrix(QT, list(zip(*[v for _, v in expected])))
    cols = [v for _, v in expected]
    for i, j in upper_pairs(12):
        assert (m4a.algebra.mul(cols[i], cols[j])
                == S.matvec(alg.mul_table[i][j]))
    assert S.transpose().matmul(m4a.form.gram.matmul(S)) == form.gram
    # every structure constant and Gram entry is a polynomial in t
    assert all(x.den.degree == 0 for row in alg.mul_table for entry in row
               for x in entry)
    assert all(x.den.degree == 0 for row in form.gram.data for x in row)
    # the axes are S^-1 a_k: S maps each back to a_k
    assert list(axes) == m4a.axis_keys
    for k, a in zip(m4a.axis_keys, m4a.axes):
        assert S.matvec(axes[k]) == a
    # the symmetries are S^-1 g S: S g' = g S
    assert list(syms) == list(m4a.symmetries)
    for name, g in m4a.symmetries.items():
        assert S.matmul(syms[name]) == g.matmul(S)


@pytest.mark.parametrize("t0", [None, "1/12", "-1279/9327841211"])
def test_norton_blocks_are_36_10_10_10(t0):
    graded = m4.graded_m4a() if t0 is None else m4.graded_m4a().at(t0)
    assert ([b.rows for b in cert.norton_blocks(
        graded.algebra, graded.form, graded.grades)] == [36, 10, 10, 10])


@pytest.mark.parametrize("t0", ["0", "1/6", "9/4", "1/12", "7/103"])
def test_blocks_are_the_reference_form_by_grade(t0):
    # the field-arithmetic Norton form on the graded basis is zero between
    # pairs of different grades, and equals each block within a grade
    spec = m4.graded_m4a().at(rat(t0))
    alg, form, grades = spec.algebra, spec.form, spec.grades
    ref = norton_block_reference(alg, form).data
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    grade = [grades[i] ^ grades[j] for i, j in pairs]
    for r, s in upper_pairs(len(pairs)):
        if grade[r] != grade[s]:
            assert ref[r][s] == 0
    blocks = cert.norton_blocks(alg, form, grades)
    for g, block in enumerate(blocks):
        rows = [r for r in range(len(pairs)) if grade[r] == g]
        assert block.data == [[ref[r][s] for s in rows] for r in rows]


@pytest.mark.parametrize("bad", [None, 0, 1, 2, 3])
def test_norton_psd_needs_every_block(monkeypatch, bad):
    blocks = [Matrix.identity(QQ, k) for k in (36, 10, 10, 10)]
    if bad is not None:
        blocks[bad] = Matrix(QQ, [[-x for x in row]
                                  for row in blocks[bad].data])
    monkeypatch.setattr(cert, "norton_blocks",
                        lambda alg, form, grades: blocks)
    assert cert.norton_psd(None, None, None) is (bad is None)


@pytest.mark.parametrize("t0", POINTS)
def test_verdicts_equal_the_ungraded_path(t0):
    t0 = rat(t0)
    norton = norton_check_reference(t0)
    assert cert.norton_check(t0) is norton
    v = cert.majorana_certify(t0)
    assert (v.gram_pd, v.norton_psd) == (gram_pd_reference(t0), norton)


@st.composite
def rationals(draw):
    """A rational in [-1/4, 1/2], over a denominator of at most 3 or of 10
    to 12 digits."""
    q = draw(st.one_of(st.integers(1, 999),
                       st.integers(10 ** 9, 10 ** 12 - 1)))
    return Fraction(draw(st.integers(-(q // 4), q // 2)), q)


@settings(max_examples=40, deadline=None)
@given(rationals())
def test_verdicts_equal_the_ungraded_path_at_random_points(t0):
    norton = norton_check_reference(t0)
    assert cert.norton_check(t0) is norton
    assert cert.norton_check(t0) is (0 <= t0 <= Fraction(1, 6))
    v = cert.majorana_certify(t0)
    assert (v.gram_pd, v.norton_psd) == (gram_pd_reference(t0), norton)


# the grid and the points where the radical or the theorems change
DIFFERENTIAL_POINTS = tuple(dict.fromkeys(cert.DEFAULT_GRID + (
    "0", "1/6", "9/4", "1/2", "3/8", "1", "1/4", "1/32")))


@pytest.mark.parametrize("t0", DIFFERENTIAL_POINTS)
def test_definiteness_radical_and_quotient_equal_the_ungraded_path(t0):
    (row,) = cert.definiteness_report([t0])
    assert ((row["pd"], row["psd"], row["radical_dim"])
            == norton_reference.definiteness_at(rat(t0)))
    assert (cert.radical_dimension(rat(t0))
            == norton_reference.radical_dimension(rat(t0)))
    assert cert.quotient_certify(t0) == norton_reference.quotient_certify(t0)


@st.composite
def long_rationals(draw):
    """A rational in [-1/4, 1/2] over a denominator of 10 to 12 digits."""
    q = draw(st.integers(10 ** 9, 10 ** 12 - 1))
    return Fraction(draw(st.integers(-(q // 4), q // 2)), q)


@settings(max_examples=40, deadline=None)
@given(long_rationals())
def test_point_verdicts_equal_the_ungraded_path_at_random_points(t0):
    (row,) = cert.definiteness_report([t0])
    assert ((row["pd"], row["psd"], row["radical_dim"])
            == norton_reference.definiteness_at(t0))
    assert cert.radical_dimension(t0) == norton_reference.radical_dimension(t0)
    assert cert.quotient_certify(t0) == norton_reference.quotient_certify(t0)


def _graded_quotient(t0):
    """The quotient of graded_m4a at t0 by its radical, with the grade of
    each quotient basis vector, as quotient_certify builds it."""
    spec = m4.graded_m4a().at(t0)
    alg, form, grades = spec.algebra, spec.form, spec.grades
    qalg, qform, _ = quotient(alg, form, radical(form))
    return qalg, qform, [grades[alg.index(lab)] for lab in qalg.labels]


@pytest.mark.parametrize("t0", ["0", "1/6"])
def test_quotient_norton_blocks_are_15_7_7_7(monkeypatch, t0):
    sizes = []
    blocks = cert.norton_blocks

    def recording(alg, form, grades):
        out = blocks(alg, form, grades)
        sizes.append([b.rows for b in out])
        return out
    monkeypatch.setattr(cert, "norton_blocks", recording)
    assert cert.quotient_certify(t0)["norton_psd"] is True
    assert sizes == [[15, 7, 7, 7]]


def test_quotient_certify_refuses_a_quotient_off_its_grading(monkeypatch):
    # e_0 e_0 gains the grade-3 vector: the grading check raises before
    # the Norton form is split by grade
    real = cert.quotient

    def off_grade(alg, form, ideal):
        qalg, qform, project = real(alg, form, ideal)
        products = {p: qalg.mul_table[p[0]][p[1]]
                    for p in upper_pairs(qalg.dim)}
        products[0, 0] = products[0, 0][:-1] + (products[0, 0][-1] + 1,)
        return Algebra(qalg.field, qalg.labels, products), qform, project
    monkeypatch.setattr(cert, "quotient", off_grade)
    with pytest.raises(NotGraded, match="leaves grade"):
        cert.quotient_certify("0")


@pytest.mark.parametrize("t0", ["0", "1/6"])
def test_one_wrong_grade_in_the_quotient_is_refused(t0):
    # a vector of grade 0 moved to any other grade is refused.  The three
    # vectors of grades 1, 2 and 3 multiply to zero among themselves in
    # the quotient, so the table leaves their grades free: another
    # grade there is still a grading
    qalg, qform, qgrades = _graded_quotient(t0)
    check_graded(qalg, qform, qgrades)
    odd = [i for i, g in enumerate(qgrades) if g]
    assert all(not any(qalg.mul_table[i][j]) for i in odd for j in odd
               if i != j)
    for i in set(range(qalg.dim)) - set(odd):
        for g in (1, 2, 3):
            bad = list(qgrades)
            bad[i] = g
            with pytest.raises(NotGraded):
                check_graded(qalg, qform, bad)


# ---------------------------------------------------------------------------
# the graded build refuses what is not graded
# ---------------------------------------------------------------------------

def _taus(m4a):
    return [m4a.symmetries["tau_1"], m4a.symmetries["tau_2"]]


def _graded(alg, form, involutions, symmetries):
    """graded_by_involutions on the record of alg and form with M_4A's
    axes and those symmetries."""
    return graded_by_involutions(
        ConstructedAlgebra(alg, form, m4.build_m4a().axis_keys, symmetries),
        involutions)


def test_every_flipped_sign_in_a_tau_is_refused(m4a):
    taus = _taus(m4a)
    flipped = 0
    for b, tau in enumerate(taus):
        for i, j in ((i, j) for i in range(12) for j in range(12)
                     if not tau.data[i][j].is_zero()):
            data = [list(row) for row in tau.data]
            data[i][j] = -data[i][j]
            bad = list(taus)
            bad[b] = Matrix(QT, data)
            with pytest.raises(NotGraded):
                _graded(m4a.algebra, m4a.form, bad, m4a.symmetries)
            flipped += 1
    assert flipped == 32


def _tampered_table(m4a, pair, label):
    """M_4A with basis vector label added to the product at pair."""
    alg = m4a.algebra
    products = {p: alg.mul_table[p[0]][p[1]] for p in upper_pairs(12)}
    i, j = alg.index(pair[0]), alg.index(pair[1])
    k = alg.index(label)
    products[i, j] = tuple(x + QT.one if c == k else x
                           for c, x in enumerate(products[i, j]))
    return Algebra(QT, alg.labels, products)


def test_a_product_moved_off_its_grade_is_refused(m4a):
    # a_1 a_1 gains a_2, which has parts in grades 0 and 1, so
    # (a_1 + a_-1)^2 leaves grade 0
    alg = _tampered_table(m4a, ("a_1", "a_1"), "a_2")
    with pytest.raises(NotGraded, match="leaves grade"):
        _graded(alg, m4a.form, _taus(m4a), m4a.symmetries)
    # a control: a change that keeps the grading passes
    _graded(_tampered_table(m4a, ("v_12", "v_12"), "v_13"),
            m4a.form, _taus(m4a), m4a.symmetries)


def test_a_gram_entry_across_grades_is_refused(m4a):
    gram = m4a.form.gram.data
    values = {(i, j): gram[i][j] for i, j in upper_pairs(12)}
    values[0, 2] = values[0, 2] + QT.one   # <a_1, a_2>
    with pytest.raises(NotGraded, match="joins grades"):
        _graded(m4a.algebra, BilinearForm(QT, values),
                _taus(m4a), m4a.symmetries)


def test_a_tau_that_is_no_involution_leaves_too_few_eigenvectors(m4a):
    # tau_1 with a_2 -> -a_-2 squares to -1 on the plane of a_2 and a_-2,
    # which then holds no eigenvector
    tau = _taus(m4a)[0]
    data = [list(row) for row in tau.data]
    data[3][2] = -data[3][2]
    with pytest.raises(NotGraded, match="10 joint eigenvectors"):
        _graded(m4a.algebra, m4a.form,
                [Matrix(QT, data), _taus(m4a)[1]],
                m4a.symmetries)


def test_a_basis_change_that_degenerates_at_a_point_is_refused(m4a):
    # conjugating both taus by P = diag(t, 1, ..., 1) keeps them commuting
    # involutions, but the eigenvectors t a_1 + a_-1, t a_1 - a_-1 and
    # w_1 - t^2 a_1 are dependent at t = 0: det S = 8t
    t = QT.t
    p = [[(t if i == 0 else QT.one) if i == j else QT.zero
          for j in range(12)] for i in range(12)]
    p_inv = [[x if i else QT.one / t if j == 0 else x
              for j, x in enumerate(row)] for i, row in enumerate(p)]
    P, P_inv = Matrix(QT, p), Matrix(QT, p_inv)
    taus = [P.matmul(tau).matmul(P_inv) for tau in _taus(m4a)]
    with pytest.raises(NotGraded, match="not a nonzero constant"):
        _graded(m4a.algebra, m4a.form, taus, m4a.symmetries)


def test_a_symmetry_that_is_no_polynomial_on_the_graded_basis_is_refused(
        m4a):
    # diag(1/t, 1, ..., 1) conjugated into the graded basis has entries
    # with t in the denominator
    t = QT.t
    scaling = Matrix(QT, [[(QT.one / t if i == 0 else QT.one) if i == j
                           else QT.zero for j in range(12)]
                          for i in range(12)])
    with pytest.raises(NotGraded, match="not polynomial"):
        _graded(m4a.algebra, m4a.form, _taus(m4a),
                {**m4a.symmetries, "scaling": scaling})


# ---------------------------------------------------------------------------
# built lazily, once per process
# ---------------------------------------------------------------------------

def _counting_builds(monkeypatch):
    """Empty the cache and count the graded builds."""
    calls = []
    build = m4.graded_by_involutions

    def counting(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    monkeypatch.setattr(m4, "graded_by_involutions", counting)
    return calls


def test_build_m4a_alone_does_not_build_the_graded_algebra(monkeypatch):
    calls = _counting_builds(monkeypatch)
    m4a = m4.build_m4a()
    assert calls == [] and m4._M4A_CACHE == {"build": m4a}


def _counting_axis_reads(monkeypatch):
    """The graded cache with each axis S^-1 a_k replaced by an equal tuple
    that records each time it is iterated, as evaluating it at a point
    does; returns the list of those records."""
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(self)
            return super().__iter__()
    m4a = m4.build_m4a()
    graded = m4.graded_m4a()
    monkeypatch.setattr(m4, "_M4A_CACHE", {
        "build": m4a, "graded": ConstructedAlgebra(
            graded.algebra, graded.form, graded.axis_keys,
            graded.symmetries, grades=graded.grades,
            axes=[Counted(a) for a in graded.axes])})
    return reads


@pytest.mark.parametrize("verdict,reads", [
    (cert.norton_check, 0), (cert.majorana_certify, 0),
    (cert.quotient_certify, 6)])
def test_only_the_quotient_evaluates_the_graded_axes(monkeypatch, verdict,
                                                     reads):
    counted = _counting_axis_reads(monkeypatch)
    verdict("0")
    assert len(counted) == reads


def test_the_form_only_verdicts_never_evaluate_the_table(monkeypatch):
    # definiteness and the radical read the Gram matrix alone: they
    # never evaluate the algebra
    def forbidden(self, t0):
        raise AssertionError("Algebra.at in a form-only verdict")
    graded = m4.graded_m4a()
    monkeypatch.setattr(Algebra, "at", forbidden)
    # a control: the whole record evaluates its algebra
    with pytest.raises(AssertionError, match="form-only"):
        graded.at("0")
    assert len(cert.definiteness_report(cert.DEFAULT_GRID)) == 12
    assert len(cert.radical_report(cert.DEFAULT_GRID)) == 12


def test_graded_checks_run_once_per_process(monkeypatch):
    calls = _counting_builds(monkeypatch)
    cert.definiteness_report(("0", "1/5"))
    cert.radical_report(("9/4",))
    cert.norton_grid_report(("0", "1/5"))
    cert.majorana_certify("1/12")
    cert.quotient_certify("0")
    assert len(calls) == 1
    assert m4.graded_m4a() is m4._M4A_CACHE["graded"]
