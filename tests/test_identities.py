"""The automorphism and Frobenius identities, decided on integers at one
point, against their field-arithmetic references.

axia.algebra.is_automorphism and verify_frobenius clear their inputs to
integer polynomials and compare both sides of each identity at one
integer past a coefficient bound.  Here they must agree with
axial_reference.is_automorphism and form_reference's
verify_frobenius_reference, which compute each side over the algebra's
field: on every symmetry of the built algebras, on Miyamoto maps that
relabel nothing, on tampered maps, tables and forms, and on small
algebras whose identity fails only off a root placed just inside the
bound, for every root a fixed or misjudged point could pick.
"""

import pytest

from axia.algebra import (Algebra, BilinearForm, _symmetry_bound,
                          axis_decomposition, is_automorphism,
                          verify_frobenius)
from axia.catalog import f4a_rule, monster_rule
from axia.errors import DimensionMismatch
from axia.linalg import Matrix, upper_pairs
from axia.scalars import QT

from axial_reference import is_automorphism as is_automorphism_reference
from conftest import tampered_gram, tampered_table
from form_reference import verify_frobenius_reference
from miyamoto_reference import miyamoto_reference

T = QT.t
DELTAS = {"t/1000": T / 1000, "(t-2)/1000": (T - 2) / 1000,
          "t^5/1000": T ** 5 / 1000}


def _built(name, m4a, m4b, catalog):
    return {"m4a": m4a, "m4b": m4b}.get(name) or catalog[name]


def _same_verdict(alg, op, form):
    verdict = is_automorphism(alg, op, form)
    assert verdict == is_automorphism_reference(alg, op, form)
    return verdict


def _same_records(alg, form):
    records = verify_frobenius(alg, form)
    assert records == verify_frobenius_reference(alg, form)
    return records


def _tampered_map(op, r, c, delta):
    """op with delta added to its entry (r, c)."""
    rows = [list(row) for row in op.data]
    rows[r][c] = rows[r][c] + delta
    return Matrix(op.field, rows)


@pytest.mark.parametrize("name", ["m4a", "m4b", "2A", "2B", "3A", "3C",
                                  "4A", "4B", "5A", "6A"])
def test_every_symmetry_is_accepted_as_by_the_reference(name, m4a, m4b,
                                                        catalog):
    built = _built(name, m4a, m4b, catalog)
    for op in built.symmetries.values():
        assert _same_verdict(built.algebra, op, built.form)
    assert _same_records(built.algebra, built.form) == []


@pytest.mark.parametrize("axis,rule,negated", [
    ("a_1", monster_rule(QT), [("1/32",), ("1/4",), ("1/4", "1/32"),
                               ("0",)]),
    ("v_12", f4a_rule(), [("3/8",), (T,), ("3/8", T), ("1/2",)]),
], ids=["a_1", "v_12"])
def test_miyamoto_maps_get_the_reference_verdict(m4a, axis, rule, negated):
    # no map here is a signed relabeling: the automorphisms among them
    # move some basis vectors to sums, and the others are dense with
    # fractional entries
    alg = m4a.algebra
    dec = axis_decomposition(alg, alg.basis_vector(axis), rule.eigenvalues)
    verdicts = [_same_verdict(alg, miyamoto_reference(alg, dec, neg),
                              m4a.form) for neg in negated]
    assert True in verdicts and False in verdicts


def test_a_scaling_with_a_polynomial_denominator_is_accepted():
    # e_0 e_0 = e_0, e_0 e_1 = e_1 / 2, e_1 e_1 = 0 and <e_1, e_1> = 0:
    # diag(1, 1/t) is an automorphism and an isometry, with N = diag(t, 1)
    # and d = t
    z, one = QT.zero, QT.one
    alg = Algebra(QT, ["e_0", "e_1"], {(0, 0): (one, z),
                                       (0, 1): (z, QT.of("1/2")),
                                       (1, 1): (z, z)})
    form = BilinearForm(QT, {(0, 0): one, (0, 1): z, (1, 1): z})
    assert _same_verdict(alg, Matrix(QT, [[one, z], [z, one / T]]), form)
    assert not _same_verdict(alg, Matrix(QT, [[one, z], [z, T]]),
                             BilinearForm(QT, {(0, 0): one, (0, 1): z,
                                               (1, 1): one}))


@pytest.mark.parametrize("delta", list(DELTAS), ids=list(DELTAS))
def test_tampered_maps_get_the_reference_verdict(m4a, delta):
    # a zero and a nonzero entry of each generator, and of a Miyamoto map
    # of v_12, which is dense
    alg, n = m4a.algebra, m4a.algebra.dim
    dec = axis_decomposition(alg, alg.basis_vector("v_12"),
                             f4a_rule().eigenvalues)
    ops = [*m4a.symmetries.values(), miyamoto_reference(alg, dec, (T,))]
    for op in ops:
        for r, c in ((0, 0), (n - 1, 0), (3, 7)):
            bad = _tampered_map(op, r, c, DELTAS[delta])
            assert not _same_verdict(alg, bad, m4a.form)


def test_a_gram_entry_off_by_a_polynomial_with_integer_roots(m4a):
    # (t - 1)(t - 2) vanishes at two small integers; the generators that
    # move e_0 and e_2 elsewhere are no isometries of the tampered form
    bad = tampered_gram(m4a.form, 0, 2, (T - 1) * (T - 2))
    verdicts = {name: _same_verdict(m4a.algebra, op, bad)
                for name, op in m4a.symmetries.items()}
    assert False in verdicts.values()
    assert _same_records(m4a.algebra, bad)


@pytest.mark.parametrize("delta", list(DELTAS), ids=list(DELTAS))
def test_a_tampered_table_gets_the_reference_records(m4a, delta):
    alg = tampered_table(m4a.algebra, 1, 2, 3, DELTAS[delta])
    assert _same_records(alg, m4a.form)
    assert not _same_verdict(alg, m4a.symmetries["sigma"], m4a.form)


# every power of two up to 2^200, its neighbours and the powers of ten,
# as in test_fusion: each point a fixed or a misjudged choice could pick
_ROOTS = sorted({2 ** k + e for k in range(201) for e in (-1, 0, 1)}
                | {10 ** k for k in range(61)})


def test_a_map_that_fails_off_one_root_is_rejected():
    # e e = e with the zero form and T = 1/(t - m + 1): T(e e) = T e . T e
    # iff T = 1, that is at t = m only.  Cleared, the identity reads
    # d N W = N N W with N = 1 and d = t - m + 1, and its bound is
    # m + 1 for m >= 1, so the point one bit short of passing it,
    # 2^(bitlen(m + 1) - 1), is m itself at m = 2^k
    alg = Algebra(QT, ["e"], {(0, 0): (QT.one,)})
    zero = BilinearForm(QT, {(0, 0): QT.zero})
    for m in _ROOTS:
        op = Matrix(QT, [[QT.one / (T - m + 1)]])
        assert not _same_verdict(alg, op, zero), m


def test_a_frobenius_violation_off_one_root_is_reported():
    # e_0 e_0 = m e_1 and e_0 e_1 = (t - m) e_0 with the identity Gram
    # matrix: <e_0, e_0 e_1> - <e_0 e_0, e_1> = t - 2m.  Its bound is
    # 2 (m + 1), so the point one bit short of passing it is 2m itself
    # at m = 2^k
    z = QT.zero
    form = BilinearForm(QT, {(0, 0): QT.one, (0, 1): z, (1, 1): QT.one})
    for m in _ROOTS:
        alg = Algebra(QT, ["e_0", "e_1"], {(0, 0): (z, QT.of(m)),
                                           (0, 1): (T - m, z),
                                           (1, 1): (z, z)})
        records = _same_records(alg, form)
        assert [r["triple"] for r in records] == [("e_0", "e_0", "e_1")], m


def test_a_map_or_form_of_another_size_is_rejected(catalog):
    d = catalog["3A"]
    n = d.algebra.dim
    one = d.algebra.field.one
    small = BilinearForm(d.algebra.field, {(0, 0): one})
    for op in (Matrix.identity(d.algebra.field, n + 1),
               Matrix(d.algebra.field, [[one] * n])):
        with pytest.raises(DimensionMismatch, match="map"):
            is_automorphism(d.algebra, op, d.form)
    with pytest.raises(DimensionMismatch, match="form of dimension 1"):
        is_automorphism(d.algebra, Matrix.identity(d.algebra.field, n),
                        small)
    with pytest.raises(DimensionMismatch, match="form of dimension 1"):
        verify_frobenius(d.algebra, small)


def test_no_field_product_on_a_passing_input(monkeypatch, m4a):
    def forbidden(*args):
        raise AssertionError("field arithmetic on vectors or matrices")
    for cls, name in ((Algebra, "mul"), (Matrix, "matvec"),
                      (Matrix, "matmul")):
        monkeypatch.setattr(cls, name, forbidden)
    for op in m4a.symmetries.values():
        assert is_automorphism(m4a.algebra, op, m4a.form)
    assert verify_frobenius(m4a.algebra, m4a.form) == []


def test_the_table_is_scaled_once_per_algebra(monkeypatch, m4a, m4b):
    # over Q(t) the table's integer coefficients are cleared by the first
    # identity decided on an algebra, and each later one only evaluates
    # them at its point; over Q they are never cleared
    sizes = []
    scaled = type(QT).scaled

    def counting(self, part):
        part = list(part)
        sizes.append(len(part))
        return scaled(self, part)
    monkeypatch.setattr(type(QT), "scaled", counting)
    alg = tampered_table(m4a.algebra, 0, 0, 0, QT.zero)
    table_size = sum(len(alg.table_nums[i][j]) for i, j in upper_pairs(12))
    for op in m4a.symmetries.values():
        assert is_automorphism(alg, op, m4a.form)
    assert verify_frobenius(alg, m4a.form) == []
    # two parts per automorphism, one for the Frobenius identity, and the
    # table once
    assert len(sizes) == 2 * 5 + 1 + 1 and sizes.count(table_size) == 1
    for op in m4b.symmetries.values():
        assert is_automorphism(m4b.algebra, op, m4b.form)
    assert verify_frobenius(m4b.algebra, m4b.form) == []
    assert "table_coeffs" not in vars(m4b.algebra)


@pytest.mark.parametrize("w, g", [(1000, 1), (1, 1000)],
                         ids=["table", "form"])
def test_the_symmetry_bound_covers_both_sides_of_each_identity(w, g):
    # Nonnegative coefficients never cancel, so the l1 norm of a sum or a
    # product of such polynomials is its value at t = 1.  With every entry
    # of N equal, every table numerator of l1 norm w and every form entry
    # of l1 norm g, each side of each identity reaches the term of the
    # bound that covers it, and the bound is exactly the larger sum of two
    # sides: without any one of its four terms it leaves the two sides of
    # the table identity (w large) or the form identity (g large)
    # uncovered.
    n, entry, d = 3, (1, 2), (2, 0, 1)  # N_ab = 1 + 2t, d = 2 + t^2
    x, dn = sum(entry), sum(d)
    table_sides = dn * n * x * w + n * n * x * x * w  # d N W_ij, N W N
    form_sides = dn * dn * g + n * n * x * x * g      # d^2 F_ij, N F N
    bound = _symmetry_bound(w, g, [entry] * (n * n), d, n)
    assert bound >= max(table_sides, form_sides)
