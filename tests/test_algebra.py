"""Algebra engine: decompositions, fusion/Frobenius checks, Miyamoto maps,
ideals, quotients, gradings — exercised on small hand-checkable algebras
and the dihedral catalog."""

import random

import pytest

from axia.algebra import (Algebra, BilinearForm, ConstructedAlgebra,
                          FusionRule, axis_decomposition, is_automorphism,
                          miyamoto, quotient, radical, subalgebra_closure,
                          verify_frobenius, verify_fusion, verify_grading)
from axia.catalog import dihedral, f4a_rule, monster_rule
from axia.errors import (DimensionMismatch, NotAnIdeal, NotIdempotent,
                         NotSemisimple)
from axia.linalg import Matrix, upper_pairs
from axia.m4 import specialize_m4a
from axia.scalars import QQ, QT, rat
from axia.serialize import algebra_to_json

from conftest import tampered_gram, tampered_table
from form_reference import (form_apply_reference, quotient_reference,
                            verify_frobenius_reference)
from ideal_reference import is_ideal
from miyamoto_reference import inverse, miyamoto_reference

MONSTER_EVS = tuple(QQ.of(x) for x in ("1", "0", "1/4", "1/32"))


def qm(rows):
    return Matrix(QQ, [[rat(x) for x in row] for row in rows])


def qform(rows):
    """The form over Q with the symmetric Gram matrix rows."""
    return BilinearForm(QQ, {(i, j): rat(rows[i][j])
                             for i, j in upper_pairs(len(rows))})


# ---------------------------------------------------------------------------
# core structure
# ---------------------------------------------------------------------------

def test_mul_bilinearity_trivial():
    alg = dihedral("2B").algebra
    a0, a1 = alg.basis_vector("a_0"), alg.basis_vector("a_1")
    u = tuple(rat(2) * x + rat(3) * y for x, y in zip(a0, a1))
    assert alg.mul(u, u) == tuple(rat(4) * x + rat(9) * y
                                  for x, y in zip(a0, a1))  # a_0 a_1 = 0


def bilinear_reference(alg, u, v):
    """sum_ijk u_i v_j T[i][j][k] e_k with plain field arithmetic."""
    acc = [alg.field.zero] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                acc[k] = acc[k] + u[i] * v[j] * alg.mul_table[i][j][k]
    return tuple(acc)


def _qt_entries():
    """Q(t) scalars with distinct nonconstant denominators sharing factors."""
    t, c = QT.t, QT.of
    return [QT.zero, c(1), c("-2/7"), t, c("1/32") * t,
            c(1) / (t - 1), c(1) / (t * t - 1), c(3) / (c(2) * t + 1),
            (t + 1) / (t - 1), (t * t - c(5)) / (c(4) * t * t - 1)]


def _qq_entries():
    return [QQ.zero, rat(1), rat(-3), rat("1/2"), rat("-5/6"), rat("7/32"),
            rat("9/4"), rat("-1/3")]


def _random_algebra(field, entries, rng, dim):
    products = {p: tuple(rng.choice(entries) for _ in range(dim))
                for p in upper_pairs(dim)}
    return Algebra(field, [f"b_{i}" for i in range(dim)], products)


@pytest.mark.parametrize("field", [QQ, QT], ids=["QQ", "QT"])
def test_mul_equals_bilinear_reference(field):
    # [DERIVED] common-denominator products against plain arithmetic, on
    # tables whose common denominator is not 1
    entries = _qq_entries() if field is QQ else _qt_entries()
    rng = random.Random(3)
    for dim in (1, 2, 4):
        alg = _random_algebra(field, entries, rng, dim)
        zero = (field.zero,) * dim
        for _ in range(12):
            u = tuple(rng.choice(entries) for _ in range(dim))
            v = tuple(rng.choice(entries) for _ in range(dim))
            assert alg.mul(u, v) == bilinear_reference(alg, u, v)
            assert alg.mul(u, zero) == zero and alg.mul(zero, v) == zero


def test_mul_on_m4a_with_denominators_equals_reference(m4a):
    # [DERIVED] the structure constants of M_4A all have denominator 1;
    # the vectors here do not
    alg = m4a.algebra
    rng = random.Random(4)
    entries = _qt_entries()
    u = tuple(rng.choice(entries) for _ in range(alg.dim))
    v = tuple(rng.choice(entries) for _ in range(alg.dim))
    assert alg.mul(u, v) == bilinear_reference(alg, u, v)


def test_mul_cancels_to_normalised_zero_and_constants():
    # [TRIVIAL] (1/(t-1)) b * (t-1) b = b and x b - x b = 0 need the
    # joined numerator over the common denominator reduced
    t = QT.t
    alg = Algebra(QT, ["b"], {(0, 0): (QT.of(1) / (t * t - 1),)})
    p = alg.mul((t * t - 1,), (QT.of(1) / (t + 1),))
    assert p == (QT.of(1) / (t + 1),)
    assert p[0].den == (t + 1).num and hash(p[0]) == hash(QT.of(1) / (t + 1))
    two = Algebra(QT, ["b", "c"], {(0, 0): (QT.of(1), QT.of(1) / (t - 1)),
                                   (0, 1): (QT.of(1), -QT.of(1) / (t - 1)),
                                   (1, 1): (QT.zero, QT.zero)})
    assert two.mul((QT.of(1), QT.of(1)), (QT.of(1), QT.zero)) == \
        (QT.of(2), QT.zero)


def test_asymmetric_table_rejected():
    # x*y and y*x cannot be given apart: the key (1, 0) is rejected
    z = (rat(0), rat(0))
    e0 = (rat(1), rat(0))
    with pytest.raises(ValueError):
        Algebra(QQ, ["x", "y"], {(0, 0): e0, (0, 1): e0, (1, 0): z,
                                 (1, 1): z})


def _pair_entries():
    """Valid constructor input on two basis vectors: the products of
    Algebra and the values of BilinearForm at (0, 0), (0, 1), (1, 1)."""
    one, z = rat(1), rat(0)
    return ({(0, 0): (one, z), (0, 1): (z, z), (1, 1): (z, one)},
            {(0, 0): one, (0, 1): z, (1, 1): rat(2)})


def _key_edits(entries):
    """entries with a missing pair, with (0, 1) given as (1, 0), and with
    an extra pair (2, 2)."""
    missing = {p: x for p, x in entries.items() if p != (0, 1)}
    lower = {(1, 0) if p == (0, 1) else p: x for p, x in entries.items()}
    extra = {**entries, (2, 2): entries[0, 0]}
    return {"missing": missing, "lower": lower, "extra": extra}


@pytest.mark.parametrize("edit", ["missing", "lower", "extra"])
def test_constructors_reject_any_other_key_set(edit):
    products, values = _pair_entries()
    with pytest.raises(ValueError):
        Algebra(QQ, ["x", "y"], _key_edits(products)[edit])
    with pytest.raises(ValueError):
        BilinearForm(QQ, _key_edits(values)[edit])


def test_algebra_rejects_a_product_of_the_wrong_length():
    products, _ = _pair_entries()
    for short_or_long in ((rat(1),), (rat(1), rat(0), rat(0))):
        with pytest.raises(DimensionMismatch):
            Algebra(QQ, ["x", "y"], {**products, (1, 1): short_or_long})


def _without_last_vector(form):
    """The form on all but the last basis vector: a BilinearForm takes its
    size from its largest index, so this one is one smaller."""
    n = form.gram.rows
    return BilinearForm(form.field, {(i, j): form.gram.data[i][j]
                                     for i, j in upper_pairs(n - 1)})


def test_constructed_algebra_rejects_a_form_of_another_dimension():
    d = dihedral("3A")
    short = _without_last_vector(d.form)
    assert short.gram.rows == d.algebra.dim - 1
    with pytest.raises(DimensionMismatch, match="form of dimension 3"):
        ConstructedAlgebra(d.algebra, short, d.axis_keys)


def test_quotient_rejects_a_form_of_another_dimension():
    spec = specialize_m4a(rat(0))
    rad = radical(spec.form)
    with pytest.raises(DimensionMismatch, match="form of dimension 11"):
        quotient(spec.algebra, _without_last_vector(spec.form), rad)


def test_fusion_rule_requires_total_table():
    with pytest.raises(ValueError):
        FusionRule(QQ, ("1", "0"), {("1", "1"): {"1"}})


# ---------------------------------------------------------------------------
# axis decompositions
# ---------------------------------------------------------------------------

def test_axis_decomposition_rejects_non_idempotent():
    alg = dihedral("2B").algebra
    v = tuple(rat(2) * x for x in alg.basis_vector("a_0"))
    with pytest.raises(NotIdempotent):
        axis_decomposition(alg, v, MONSTER_EVS)


def test_axis_decomposition_incomplete_eigenvalues():
    alg = dihedral("2A").algebra
    with pytest.raises(NotSemisimple):
        axis_decomposition(alg, alg.basis_vector("a_0"),
                           (QQ.of(1), QQ.of(0)))


def test_primitive_flag():
    d = dihedral("3A")
    dec = axis_decomposition(d.algebra, d.axes[0], MONSTER_EVS)
    assert dec.is_primitive and sum(dec.dims) == d.algebra.dim
    # the identity-free algebra has no non-primitive axis here; check the
    # flag goes false for a decomposition around a non-axis idempotent:
    # a_rho in 2A is idempotent with ad eigenvalues {1, 0, 1/4} and a
    # 1-dimensional 1-eigenspace too, so use the full-space idempotent of
    # a 1-dimensional algebra instead
    one = Algebra(QQ, ["e"], {(0, 0): (rat(1),)})
    dec1 = axis_decomposition(one, (rat(1),), (QQ.of(1),))
    assert dec1.is_primitive


# ---------------------------------------------------------------------------
# fusion / Frobenius negative controls
# ---------------------------------------------------------------------------

def test_verify_fusion_detects_tampered_product():
    d = dihedral("3C")
    alg = d.algebra
    products = {(i, j): list(alg.mul_table[i][j])
                for i, j in upper_pairs(alg.dim)}
    pair = tuple(sorted((alg.index("a_0"), alg.index("a_1"))))
    products[pair][alg.index("a_-1")] += rat("1/7")
    bad = Algebra(QQ, alg.labels, products)
    dec = axis_decomposition(bad, bad.basis_vector("a_-1"), MONSTER_EVS)
    assert verify_fusion(bad, dec, monster_rule())


def test_verify_frobenius_detects_perturbed_gram_entry():
    d = dihedral("3A")
    i, j = sorted((d.algebra.index("a_0"), d.algebra.index("u_rho")))
    bad = tampered_gram(d.form, i, j, rat("1/1000"))
    violations = verify_frobenius(d.algebra, bad)
    assert violations
    # the offending label must occur in some reported triple
    assert any("u_rho" in v["triple"] or "a_0" in v["triple"]
               for v in violations)


def test_verify_frobenius_passes_on_catalog():
    d = dihedral("4A")
    assert verify_frobenius(d.algebra, d.form) == []


@pytest.mark.parametrize("name", ["m4b", "m4a", "6A"])
def test_verify_frobenius_equals_reference_on_tampered_structures(
        name, m4a, m4b, catalog):
    built = {"m4a": m4a, "m4b": m4b}.get(name) or catalog[name]
    alg, form = built.algebra, built.form
    delta = QT.t / QT.of(7) if alg.field is QT else rat("1/7")
    assert verify_frobenius(alg, form) == []
    for bad_alg, bad_form in [(tampered_table(alg, 1, 2, 3, delta), form),
                              (alg, tampered_gram(form, 0, 2, delta))]:
        violations = verify_frobenius(bad_alg, bad_form)
        assert violations
        assert violations == verify_frobenius_reference(bad_alg, bad_form)


@pytest.mark.parametrize("name", ["m4b", "m4a"])
def test_form_apply_equals_double_loop(name, m4a, m4b):
    built = {"m4a": m4a, "m4b": m4b}[name]
    field, n = built.algebra.field, built.algebra.dim
    rng = random.Random(f"form-apply/{name}")
    for _ in range(20):
        u, v = ([field.of(rng.randint(-3, 3)) if rng.random() < 0.4
                 else field.zero for _ in range(n)] for _ in range(2))
        assert (built.form.apply(u, v)
                == form_apply_reference(built.form, u, v))


# ---------------------------------------------------------------------------
# Miyamoto involutions
# ---------------------------------------------------------------------------

def test_miyamoto_is_involutive_automorphism_and_isometry():
    d = dihedral("3A")
    dec = axis_decomposition(d.algebra, d.axes[d.axis_keys.index(0)],
                             MONSTER_EVS)
    tau = miyamoto(d.algebra, dec, ("1/32",), d.form)
    n = d.algebra.dim
    assert tau.matmul(tau) == Matrix.identity(QQ, n)
    assert is_automorphism(d.algebra, tau, d.form)
    # tau(a_0) swaps a_1 and a_-1 and fixes a_0, u_rho  [TRIVIAL action]
    assert tau.matvec(d.algebra.basis_vector("a_1")) == \
        d.algebra.basis_vector("a_-1")
    assert tau.matvec(d.algebra.basis_vector("a_0")) == \
        d.algebra.basis_vector("a_0")
    assert tau.matvec(d.algebra.basis_vector("u_rho")) == \
        d.algebra.basis_vector("u_rho")


def test_decomposition_keeps_the_adjoint_it_was_built_from(monkeypatch,
                                                          m4a):
    # verify_fusion and miyamoto read dec.ad; neither rebuilds ad_a
    alg = m4a.algebra
    dec = axis_decomposition(alg, m4a.axes[0], MONSTER_EVS)
    assert dec.ad == alg.ad(m4a.axes[0])

    def rebuilt(self, a):
        raise AssertionError("ad_a rebuilt")
    monkeypatch.setattr(Algebra, "ad", rebuilt)
    assert verify_fusion(alg, dec, monster_rule(QT)) == []
    assert (miyamoto(alg, dec, ("1/32",), m4a.form)
            == m4a.symmetries["tau_1"])


def test_miyamoto_orbit_generates_axis_dihedral():
    # tau(a_0) tau(a_1) acts as translation by 2 on 5A axis indices
    d = dihedral("5A")
    alg = d.algebra

    def tau_at(key):
        dec = axis_decomposition(alg, d.axes[d.axis_keys.index(key)],
                                 MONSTER_EVS)
        return miyamoto(alg, dec, ("1/32",), d.form)

    rho = tau_at(1).matmul(tau_at(0))
    img = rho.matvec(alg.basis_vector("a_0"))
    assert img == alg.basis_vector("a_2")


MIYAMOTO_RECORDS = ["2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A", "m4b",
                    "m4a", "m4a@0", "m4a@1/6", "m4a@9/4", "m4a@1/12"]


@pytest.mark.parametrize("name", MIYAMOTO_RECORDS)
def test_miyamoto_equals_inverted_eigenbasis(name, catalog, m4a, m4b,
                                             monkeypatch):
    # [DERIVED] I - 2 sum P_lam against E S E^-1 on every axis; negating
    # 1/4 as well is not an automorphism in general, so that map is
    # compared with the automorphism check switched off
    if name.startswith("m4a@"):
        built = specialize_m4a(rat(name[4:]))
    else:
        built = {"m4a": m4a, "m4b": m4b}.get(name) or catalog[name]
    alg, form = built.algebra, built.form
    rule = monster_rule(alg.field)
    for ax in built.axes:
        dec = axis_decomposition(alg, ax, rule.eigenvalues)
        assert (miyamoto(alg, dec, ("1/32",), form)
                == miyamoto_reference(alg, dec, ("1/32",)))
        both = ("1/4", "1/32")
        ref = miyamoto_reference(alg, dec, both)
        with monkeypatch.context() as patch:
            patch.setattr("axia.algebra.is_automorphism", lambda *a: True)
            assert miyamoto(alg, dec, both, form) == ref
        if not is_automorphism(alg, ref, form):
            with pytest.raises(ValueError, match="is_automorphism"):
                miyamoto(alg, dec, both, form)


def test_miyamoto_of_m4a_axes_equals_seeded_tau(m4a):
    # [TRIVIAL] tau_i fixes the 1-, 0- and 1/4-eigenspaces of a_i and a_-i
    # and negates their 1/32-eigenspace
    alg = m4a.algebra
    for ax, key in zip(m4a.axes, m4a.axis_keys):
        dec = axis_decomposition(alg, ax, MONSTER_EVS)
        assert (miyamoto(alg, dec, ("1/32",), m4a.form)
                == m4a.symmetries[f"tau_{abs(key)}"])


@pytest.mark.parametrize("i,j", [(1, 2), (1, 3), (2, 3)])
def test_miyamoto_of_4a_axes_follows_c2xc2_grading(i, j, m4a):
    # negating the 3/8-, the t- or both eigenspaces of v_ij is an
    # automorphism and isometry (miyamoto raises otherwise); the
    # 1/2-eigenspace is graded 0, and negating it is not
    alg = m4a.algebra
    dec = axis_decomposition(alg, alg.basis_vector(f"v_{i}{j}"),
                             f4a_rule().eigenvalues)
    n = alg.dim
    for neg in (("3/8",), (QT.t,), ("3/8", QT.t)):
        tau = miyamoto(alg, dec, neg, m4a.form)
        assert tau != Matrix.identity(QT, n)
    with pytest.raises(ValueError, match="is_automorphism"):
        miyamoto(alg, dec, ("1/2",), m4a.form)
    with pytest.raises(ValueError, match="outside the decomposition"):
        miyamoto(alg, dec, ("1/32",), m4a.form)


def test_is_automorphism_rejects_non_automorphism():
    d = dihedral("2B")
    not_auto = qm([[1, 1], [0, 1]])
    assert not is_automorphism(d.algebra, not_auto, d.form)


def test_is_automorphism_rejects_non_isometry():
    # the swap a_0 <-> a_1 is an automorphism of 2B but moves the Gram
    # entry <a_0, a_0> = 1 to <a_1, a_1> = 2 of this form
    d = dihedral("2B")
    swap = d.symmetries["swap_01"]
    assert is_automorphism(d.algebra, swap, d.form)
    assert not is_automorphism(d.algebra, swap, qform([[1, 0], [0, 2]]))


# ---------------------------------------------------------------------------
# closures, ideals, radicals, quotients
# ---------------------------------------------------------------------------

def test_subalgebra_closure_of_axes_is_whole_algebra():
    d = dihedral("6A")
    closure, _, _ = subalgebra_closure(d.algebra,
                                       [d.axes[d.axis_keys.index(0)],
                                        d.axes[d.axis_keys.index(1)]])
    assert len(closure) == d.algebra.dim


def test_subalgebra_closure_coords_roundtrip():
    d = dihedral("4B")
    alg = d.algebra
    gens = [alg.basis_vector("a_0"), alg.basis_vector("a_2")]
    _, sub, coords = subalgebra_closure(alg, gens)
    assert sub.dim == 3  # a 2A copy
    c = coords(gens[0])
    assert sub.is_idempotent(c)
    with pytest.raises(ValueError):
        coords(alg.basis_vector("a_1"))  # outside the subspace


def _degenerate_pair():
    """2B with a degenerate form: span{a_1} is an ideal in the kernel."""
    d = dihedral("2B")
    return d.algebra, qform([[1, 0], [0, 0]])


def test_radical_and_quotient():
    alg, form = _degenerate_pair()
    rad = radical(form)
    assert len(rad) == 1
    assert is_ideal(alg, rad)
    qalg, qform, project = quotient(alg, form, rad)
    assert qalg.dim == 1
    assert project(alg.basis_vector("a_0")) == (rat(1),)
    assert qform.gram.data[0][0] == rat(1)


@pytest.mark.parametrize("t0,radical_dim", [("0", 3), ("1/6", 3),
                                             ("9/4", 5)])
def test_quotient_equals_reference(t0, radical_dim):
    spec = specialize_m4a(rat(t0))
    rad = radical(spec.form)
    assert len(rad) == radical_dim
    qalg, qform, project = quotient(spec.algebra, spec.form, rad)
    ralg, rform, rproject = quotient_reference(spec.algebra, spec.form, rad)
    assert qalg.dim == spec.algebra.dim - radical_dim
    assert qalg.labels == ralg.labels
    assert qalg.mul_table == ralg.mul_table
    assert qform.gram == rform.gram
    assert [project(a) for a in spec.axes] == [rproject(a) for a in spec.axes]


def test_quotient_rejects_non_ideal():
    d = dihedral("2A")
    bad = [d.algebra.basis_vector("a_0")]  # not an ideal: a_0 a_1 escapes
    with pytest.raises(NotAnIdeal):
        quotient(d.algebra, d.form, bad)


def test_quotient_rejects_ideal_outside_form_kernel():
    alg, _ = _degenerate_pair()
    nondeg = qform([[1, 0], [0, 1]])
    with pytest.raises(NotAnIdeal):
        quotient(alg, nondeg, [alg.basis_vector("a_1")])


# ---------------------------------------------------------------------------
# projection graphs and gradings
# ---------------------------------------------------------------------------

def test_monster_rule_c2_grading():
    rule = monster_rule()
    asg = {QQ.of("1"): 0, QQ.of("0"): 0, QQ.of("1/4"): 0, QQ.of("1/32"): 1}
    assert verify_grading(rule, asg)
    bad = dict(asg)
    bad[QQ.of("1/4")] = 1           # 1/4 * 1/4 -> {1, 0} breaks the grading
    assert not verify_grading(rule, bad)


# ---------------------------------------------------------------------------
# reduction against RREF rows: subalgebra coordinates and quotient projection
# ---------------------------------------------------------------------------

def _skewed_idempotents(field, p_rows, d2):
    """Three orthogonal idempotents e_1, e_2, e_3 written in the basis
    b_i = sum_k P[k][i] e_k, with the form diag(1, d2, 0) on the e_k.
    Returns (algebra, form, e), e[k] being e_{k+1} in b-coordinates."""
    p = Matrix(field, p_rows)
    pinv = inverse(p)
    e = [tuple(row[k] for row in pinv.data) for k in range(3)]
    products = {(i, j): pinv.matvec([p.data[k][i] * p.data[k][j]
                                     for k in range(3)])
                for i, j in upper_pairs(3)}
    z = field.zero
    diag = Matrix(field, [[field.one, z, z], [z, field.of(d2), z],
                          [z, z, z]])
    gram = p.transpose().matmul(diag).matmul(p).data
    return (Algebra(field, ["b_0", "b_1", "b_2"], products),
            BilinearForm(field, {(i, j): gram[i][j]
                                 for i, j in upper_pairs(3)}), e)


@pytest.mark.parametrize("field", [QQ, QT], ids=["QQ", "QT"])
def test_coords_and_project_reduce_against_rref_rows(field):
    # [TRIVIAL] span{e_1, e_2} is a subalgebra and span{e_3} an ideal in
    # the form's kernel; neither is spanned by basis vectors b_i
    if field is QQ:
        x, scalars = rat("1/2"), _qq_entries()
    else:
        x, scalars = QT.t, _qt_entries()
    one, z = field.one, field.zero
    alg, form, e = _skewed_idempotents(
        field, [[one, one, z], [x, one, one], [z, field.of(2), one]], 3)
    assert all(alg.is_idempotent(v) for v in e)
    rows, sub, coords = subalgebra_closure(alg, e[:2])
    qalg, _, project = quotient(alg, form, [e[2]])
    assert (sub.dim, qalg.dim) == (2, 2)
    assert project(e[2]) == (z, z)
    rng = random.Random(5)
    for _ in range(10):
        c0, c1, c2 = (rng.choice(scalars) for _ in range(3))
        v = tuple(c0 * a + c1 * b for a, b in zip(*rows))
        assert coords(v) == (c0, c1)
        u = tuple(rng.choice(scalars) for _ in range(3))
        assert project(tuple(a + c2 * w for a, w in zip(u, e[2]))) == \
            project(u)
    with pytest.raises(ValueError):
        coords(e[2])


def test_records_place_each_axis_at_its_key(catalog, m4a, m4b):
    # [TRIVIAL] axes[k] is the basis vector a_{axis_keys[k]}
    records = list(catalog.values()) + [m4a, m4b, specialize_m4a("1/12")]
    for built in records:
        assert built.n_axes == len(built.axis_keys) > 0
        for ax, key in zip(built.axes, built.axis_keys):
            assert ax == built.algebra.basis_vector(f"a_{key}")


# ---------------------------------------------------------------------------
# one entry per unordered pair: the tables equal a full-table clearing
# ---------------------------------------------------------------------------

def _cleared_full_table(field, full):
    """(table_nums, table_den) from clearing every ordered pair of a full
    n x n product table over one common denominator."""
    nonzero = [[[(k, w) for k, w in enumerate(entry) if not field.is_zero(w)]
                for entry in row] for row in full]
    nums, den = field.clear([w for row in nonzero for entry in row
                             for _, w in entry])
    nums = iter(nums)
    return [[[(k, next(nums)) for k, _ in entry] for entry in row]
            for row in nonzero], den


def _exported_full_table(alg):
    """The full table mirrored here from the exported upper triangle."""
    field, n = alg.field, alg.dim
    doc = algebra_to_json(alg)
    entries = {p: tuple(field.from_json(x) for x in e)
               for p, e in zip(upper_pairs(n), doc["mul_table"])}
    return [[entries[min(i, j), max(i, j)] for j in range(n)]
            for i in range(n)]


def _specialized_full_table(m4a, t0):
    """specialize_m4a(t0) and M_4A's table evaluated at every ordered
    pair."""
    spec = specialize_m4a(t0).algebra
    table = m4a.algebra.mul_table
    return spec, [[tuple(x.evaluate(rat(t0)) for x in entry) for entry in row]
                  for row in table]


def _jordan_full_table(m4a):
    """The Jordan subalgebra of the three 4A axes and its products at
    every ordered pair of its basis rows."""
    alg = m4a.algebra
    rows, sub, coords = subalgebra_closure(
        alg, [alg.basis_vector(f"v_{i}{j}") for i, j in ((1, 2), (1, 3),
                                                        (2, 3))])
    return sub, [[coords(alg.mul(u, v)) for v in rows] for u in rows]


def _quotient_full_table(t0):
    """The quotient of M(t0) by its radical and the projected products
    at every ordered pair of its complement columns."""
    spec = specialize_m4a(t0)
    qalg, _, project = quotient(spec.algebra, spec.form, radical(spec.form))
    comp = [spec.algebra.index(lab) for lab in qalg.labels]
    table = spec.algebra.mul_table
    return qalg, [[project(table[i][j]) for j in comp] for i in comp]


FULL_TABLE_CASES = (["2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A", "m4b",
                     "m4a", "m4a@0", "m4a@1/6", "m4a@9/4", "jordan"]
                    + [f"quotient@{t0}" for t0 in ("0", "1/6", "9/4")])


@pytest.mark.parametrize("name", FULL_TABLE_CASES)
def test_tables_equal_a_full_table_clearing(name, catalog, m4a, m4b):
    kind, _, t0 = name.partition("@")
    if kind == "m4a" and t0:
        alg, full = _specialized_full_table(m4a, t0)
    elif kind == "jordan":
        alg, full = _jordan_full_table(m4a)
    elif kind == "quotient":
        alg, full = _quotient_full_table(t0)
    else:
        alg = ({"m4a": m4a, "m4b": m4b}.get(name) or catalog[name]).algebra
        full = _exported_full_table(alg)
    assert alg.mul_table == full
    assert (alg.table_nums, alg.table_den) == _cleared_full_table(alg.field,
                                                                  full)
