"""The 7-dimensional M_4B and the 12-dimensional symbolic family M_4A."""

from fractions import Fraction

from axia.algebra import axis_decomposition, is_automorphism, verify_fusion
from axia.catalog import monster_rule
from axia.linalg import Matrix, determinant, ldlt
from axia.m4 import (M4A_LABELS, M4B_LABELS, m4_symmetries,
                     reference_a1_eigenvectors, specialize, specialize_m4a,
                     verify_dependencies)
from axia.scalars import QQ, QT, rat
from group_reference import mulclose
from m4_reference import m4a_three_copies, m4b_three_copies
from m4a_gram_reference import m4a_gram

MONSTER_EVS = tuple(QQ.of(x) for x in ("1", "0", "1/4", "1/32"))


# ---------------------------------------------------------------------------
# M_4B
# ---------------------------------------------------------------------------

def test_m4b_dimension_and_labels(m4b):
    assert m4b.algebra.dim == 7
    assert len(m4b.axes) == 6


def test_m4b_published_products(m4b):
    alg = m4b.algebra
    # a_1 a_2 (a 4B pair)  [PUBLISHED]
    assert alg.mul(alg.basis_vector("a_1"), alg.basis_vector("a_2")) == \
        alg.vector({"a_1": "1/64", "a_2": "1/64", "a_-1": "-1/64",
                    "a_-2": "-1/64", "a_rho": "1/64"})
    # a_1 a_-1 (a 2A pair)  [PUBLISHED]
    assert alg.mul(alg.basis_vector("a_1"), alg.basis_vector("a_-1")) == \
        alg.vector({"a_1": "1/8", "a_-1": "1/8", "a_rho": "-1/8"})
    assert alg.is_idempotent(alg.basis_vector("a_rho"))


def test_m4b_rho_definition(m4b):
    # a_rho = a_i + a_-i - 8 a_i a_-i for every i  [PUBLISHED]
    alg = m4b.algebra
    for i in (1, 2, 3):
        ai = alg.basis_vector(f"a_{i}")
        mi = alg.basis_vector(f"a_-{i}")
        p = alg.mul(ai, mi)
        got = tuple(a + b - rat(8) * c for a, b, c in zip(ai, mi, p))
        assert got == alg.basis_vector("a_rho")


def test_m4b_equals_the_three_4b_copies(m4b):
    # seeded on {1, 2} only, completed under the generators
    alg, form = m4b_three_copies()
    assert m4b.algebra.mul_table == alg.mul_table
    assert m4b.form.gram == form.gram


def test_m4b_generators_are_isometric_automorphisms(m4b):
    assert list(m4b.symmetries) == ["tau_1", "tau_2", "tau_3", "sigma", "pi"]
    group = mulclose(QQ, list(m4b.symmetries.values()))
    assert len(group) == 24
    for g in m4b.symmetries.values():
        assert is_automorphism(m4b.algebra, g, m4b.form)


def test_m4b_fusion_and_form(m4b):
    alg = m4b.algebra
    rule = monster_rule()
    dec = axis_decomposition(alg, alg.basis_vector("a_1"), MONSTER_EVS)
    assert dec.is_primitive
    assert verify_fusion(alg, dec, rule) == []
    assert m4b.form.apply(alg.basis_vector("a_1"),
                          alg.basis_vector("a_rho")) == rat("1/8")


# ---------------------------------------------------------------------------
# M_4A: construction
# ---------------------------------------------------------------------------

def test_m4a_fusion_under_the_rule_over_q(m4a):
    # the eigenvalues of monster_rule() are Fractions and those of M_4A
    # rational functions; equal constants hash alike, zero included
    alg = m4a.algebra
    rule = monster_rule()
    for ax in m4a.axes:
        dec = axis_decomposition(alg, ax, rule.eigenvalues)
        assert verify_fusion(alg, dec, rule) == []


def test_m4a_dimension_and_group_order(m4a):
    assert m4a.algebra.dim == 12
    assert len(mulclose(QT, list(m4a.symmetries.values()))) == 24


def test_m4a_v_definition(m4a):
    # v_12 = a_1 + a_2 + 1/3 (a_-1 + a_-2) - 64/3 a_1 a_2  [PUBLISHED]
    alg = m4a.algebra
    c = QT.of
    a1, a2 = alg.basis_vector("a_1"), alg.basis_vector("a_2")
    lin = alg.vector({"a_1": 1, "a_2": 1, "a_-1": c("1/3"),
                      "a_-2": c("1/3")})
    p = alg.mul(a1, a2)
    got = tuple(x - c("64/3") * y for x, y in zip(lin, p))
    assert got == alg.basis_vector("v_12")


def test_m4a_w_definition_and_dependencies(m4a):
    alg = m4a.algebra
    assert alg.mul(alg.basis_vector("a_1"), alg.basis_vector("v_23")) == \
        alg.basis_vector("w_1")
    assert verify_dependencies(m4a) == []


def test_m4a_equals_the_three_4a_copies(m4a):
    # seeded with the 4A representatives on {1, 2} only
    alg, form = m4a_three_copies()
    assert m4a.algebra.mul_table == alg.mul_table
    assert m4a.form.gram == form.gram


def test_m4a_derives_the_dropped_seeds(m4a):
    # [PUBLISHED] products and form values no longer seeded
    alg = m4a.algebra
    t = QT.t
    c = QT.of

    def check(u, v, product, value):
        bu, bv = alg.basis_vector(u), alg.basis_vector(v)
        assert alg.mul(bu, bv) == alg.vector(product)
        assert m4a.form.apply(bu, bv) == value

    check("a_-1", "w_1", {"a_1": c("-1/4") * t, "w_1": c("1/4")}, 0)
    for i, vjk in ((1, "v_23"), (2, "v_13"), (3, "v_12")):
        check(f"a_{i}", vjk, {f"w_{i}": 1}, t)
        check(f"a_-{i}", vjk, {f"w_{i}": 1, f"a_{i}": -t, f"a_-{i}": t}, t)


def test_m4a_generators_as_signed_relabelings():
    # [TRIVIAL] tau_1 negates the indices 2 and 3, so w_2 -> w_2 - t
    # (a_2 - a_-2); sigma permutes 1 -> 2 -> 3 -> 1 with no correction
    syms = m4_symmetries(M4A_LABELS, QT)
    t = QT.t
    col = {lab: j for j, lab in enumerate(M4A_LABELS)}

    def image(g, lab):
        return {M4A_LABELS[i]: row[col[lab]]
                for i, row in enumerate(g.data) if row[col[lab]] != 0}

    assert image(syms["tau_1"], "w_2") == {"w_2": 1, "a_2": -t, "a_-2": t}
    assert image(syms["tau_1"], "w_1") == {"w_1": 1}
    assert image(syms["tau_1"], "a_-3") == {"a_3": 1}
    assert image(syms["tau_1"], "v_23") == {"v_23": 1}
    assert image(syms["sigma"], "a_-3") == {"a_-1": 1}
    assert image(syms["sigma"], "v_13") == {"v_12": 1}
    assert image(syms["sigma"], "w_3") == {"w_1": 1}
    assert image(syms["pi"], "v_13") == {"v_23": 1}


def test_m4a_sigma_equivariance_oracle(m4a):
    # [DERIVED] applying the triality map to a_1 w_1 = 3t/4 a_1 + 1/4 w_1
    # must give a_2 w_2 = 3t/4 a_2 + 1/4 w_2
    alg = m4a.algebra
    t = QT.t
    c = QT.of
    assert alg.mul(alg.basis_vector("a_1"), alg.basis_vector("w_1")) == \
        alg.vector({"a_1": c("3/4") * t, "w_1": c("1/4")})
    assert alg.mul(alg.basis_vector("a_2"), alg.basis_vector("w_2")) == \
        alg.vector({"a_2": c("3/4") * t, "w_2": c("1/4")})


def test_m4a_symmetries_are_involutions_where_expected(m4a):
    syms = m4_symmetries(M4A_LABELS, QT)
    ident = Matrix.identity(QT, 12)
    for name in ("tau_1", "tau_2", "tau_3", "pi"):
        assert syms[name].matmul(syms[name]) == ident
    s = syms["sigma"]
    assert s.matmul(s).matmul(s) == ident
    assert is_automorphism(m4a.algebra, syms["tau_1"], m4a.form)


# ---------------------------------------------------------------------------
# M_4A: Gram matrix closed form  [PUBLISHED]
# ---------------------------------------------------------------------------

def test_m4a_gram_matches_closed_form(m4a):
    # the form completed from the seed values, against the closed form
    ref = m4a_gram().data
    got = m4a.form.gram.data
    n = len(M4A_LABELS)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert len(pairs) == 78
    assert [got[i][j] for i, j in pairs] == [ref[i][j] for i, j in pairs]


def test_m4a_gram_published_values(m4a):
    alg = m4a.algebra
    t = QT.t
    c = QT.of
    g = m4a.form.apply

    def b(lab):
        return alg.basis_vector(lab)

    assert g(b("a_1"), b("a_-1")) == c(0)
    assert g(b("a_1"), b("a_2")) == c("1/32")
    assert g(b("a_1"), b("v_12")) == c("3/8")
    assert g(b("a_1"), b("v_23")) == t
    assert g(b("v_12"), b("v_12")) == c(2)
    assert g(b("v_12"), b("v_23")) == c("1/2") - c("8/3") * t
    assert g(b("a_1"), b("w_1")) == t
    assert g(b("a_-1"), b("w_1")) == c(0)
    assert g(b("a_2"), b("w_1")) == c("3/16") * t
    assert g(b("v_12"), b("w_1")) == c("-1/4") * t
    assert g(b("v_23"), b("w_1")) == t
    assert g(b("w_1"), b("w_1")) == (c(3) * t + 1) * t * c("1/4")
    assert g(b("w_1"), b("w_2")) == (c(2) * t + 1) * t * c("1/16")


# ---------------------------------------------------------------------------
# reference eigenvectors of ad_{a_1}  [PUBLISHED]
# ---------------------------------------------------------------------------

def test_reference_a1_eigenvectors_are_eigenvectors(m4a):
    alg = m4a.algebra
    a1 = alg.basis_vector("a_1")
    refs = reference_a1_eigenvectors()
    counts = {str(lam): len(vecs) for lam, vecs in refs.items()}
    assert counts == {"0": 5, "1/4": 4, "1/32": 2}
    for lam, vecs in refs.items():
        for v in vecs:
            assert alg.mul(a1, v) == tuple(lam * x for x in v)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

def test_specialize_gram_values():
    spec = specialize_m4a(rat(0))
    alg = spec.algebra
    assert spec.form.apply(alg.basis_vector("a_1"),
                           alg.basis_vector("v_23")) == rat(0)
    spec = specialize_m4a(rat("1/12"))
    assert spec.form.apply(alg.basis_vector("a_1"),
                           alg.basis_vector("v_23")) == rat("1/12")


def test_specialized_determinant_against_plugin_oracle():
    # [DERIVED] plug t = 1/12 into the closed form with stdlib Fractions,
    # independently of the package's Q(t) arithmetic
    t = Fraction(1, 12)
    expected = Fraction(-1) * t ** 3 * (6 * t - 1) ** 3 * (4 * t - 9) ** 6 \
        / (2 ** 19 * 3 ** 3)
    spec = specialize_m4a(rat("1/12"))
    det = determinant(spec.form.gram)
    assert Fraction(str(det)) == expected


def test_specialize_then_ldlt_commutes_with_symbolic_ldlt(m4a):
    # at a non-degenerate point the symbolic LDLT diagonal evaluates to
    # the specialized one
    sym = ldlt(m4a.form.gram)
    t0 = rat("1/12")
    spec = specialize_m4a(t0)
    num = ldlt(spec.form.gram)
    assert [d.evaluate(t0) for d in sym.D] == list(num.D)


def test_specialize_preserves_products(m4a):
    t0 = rat("1/8")
    alg, form = specialize(m4a.algebra, m4a.form, t0)
    sym = m4a.algebra.mul(m4a.algebra.basis_vector("w_1"),
                          m4a.algebra.basis_vector("w_2"))
    num = alg.mul(alg.basis_vector("w_1"), alg.basis_vector("w_2"))
    assert tuple(x.evaluate(t0) for x in sym) == num
