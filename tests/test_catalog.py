"""The dihedral catalog: dimensions, published structure constants,
eigenspace data, subalgebra inclusions and symmetry equivariance."""

import pytest

from axia.algebra import (axis_decomposition, is_automorphism,
                          subalgebra_closure, verify_frobenius, verify_fusion)
from axia.catalog import (DIHEDRAL_TYPES, dihedral, dihedral_seeds, f4a_rule,
                          jordan_half_rule,
                          monster_rule)
from axia.linalg import Matrix
from axia.scalars import QQ, QT, rat
from group_reference import mulclose

MONSTER_EVS = tuple(QQ.of(x) for x in ("1", "0", "1/4", "1/32"))

EXPECTED_DIMS = {"2A": 3, "2B": 2, "3A": 4, "3C": 3, "4A": 5, "4B": 5,
                 "5A": 6, "6A": 8}

# eigenspace dimensions of ad_{a_0} over (1, 0, 1/4, 1/32)  [PUBLISHED]
EXPECTED_EIGENSPACE_DIMS = {
    "2A": (1, 1, 1, 0), "2B": (1, 1, 0, 0), "3A": (1, 1, 1, 1),
    "3C": (1, 1, 0, 1), "4A": (1, 2, 1, 1), "4B": (1, 2, 1, 1),
    "5A": (1, 2, 1, 2), "6A": (1, 3, 2, 2),
}

# relabeling group orders: dihedral group of order 2n on axis indices,
# degenerate to order 2 for n = 2 (k -> -k is trivial mod 2)  [DERIVED]
EXPECTED_GROUP_ORDERS = {"2A": 2, "2B": 2, "3A": 6, "3C": 6, "4A": 8,
                         "4B": 8, "5A": 10, "6A": 12}


# ---------------------------------------------------------------------------
# fusion rules
# ---------------------------------------------------------------------------

def test_monster_rule_entries():
    rule = monster_rule()
    q, e = QQ.of("1/4"), QQ.of("1/32")
    assert rule[(q, q)] == {QQ.of(1), QQ.of(0)}
    assert rule[(e, e)] == {QQ.of(1), QQ.of(0), q}
    assert rule[(q, e)] == {e}
    assert rule[(QQ.of(1), QQ.of(0))] == frozenset()


def test_jordan_half_rule_entries():
    rule = jordan_half_rule()
    h = QQ.of("1/2")
    assert rule[(h, h)] == {QQ.of(1), QQ.of(0)}
    assert rule[(QQ.of(0), h)] == {h}


def test_f4a_rule_symbolic_and_specialized():
    rule = f4a_rule()
    t = QT.t
    s = QT.of("3/8")
    assert rule[(s, t)] == frozenset()
    assert rule[(t, t)] == {QT.of(1), QT.of(0), QT.of("1/2")}
    spec = f4a_rule("1/5")
    assert QQ.of("1/5") in spec.eigenvalues


@pytest.mark.parametrize("bad", ["1", "0", "1/2", "3/8"])
def test_f4a_rule_rejects_eigenvalue_collisions(bad):
    with pytest.raises(ValueError):
        f4a_rule(bad)


# ---------------------------------------------------------------------------
# per-type structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_dimensions_and_axis_count(name, catalog):
    d = catalog[name]
    assert d.algebra.dim == EXPECTED_DIMS[name]
    assert d.n_axes == int(name[0])


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_eigenspace_dims_and_fusion(name, catalog):
    d = catalog[name]
    rule = monster_rule()
    for ax in d.axes:
        dec = axis_decomposition(d.algebra, ax, MONSTER_EVS)
        assert dec.is_primitive
        assert verify_fusion(d.algebra, dec, rule) == []
    dec0 = axis_decomposition(d.algebra, d.axes[d.axis_keys.index(0)],
                              MONSTER_EVS)
    assert dec0.dims == EXPECTED_EIGENSPACE_DIMS[name]


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_frobenius_and_axis_norms(name, catalog):
    d = catalog[name]
    assert verify_frobenius(d.algebra, d.form) == []
    for ax in d.axes:
        assert d.form.apply(ax, ax) == rat(1)


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_one_seeded_idempotent_gives_every_axis(name, catalog):
    # [PUBLISHED] a_0 is the only seeded axis square; the generators give
    # a_k a_k = a_k and (a_k, a_k) = 1 on every axis
    _, seeds, _ = dihedral_seeds(name)
    squares = [(u, v) for (u, v), _, _ in seeds
               if u == v and u[2:].lstrip("-").isdigit()]
    assert squares == [("a_0", "a_0")]
    d = catalog[name]
    assert d.n_axes == int(name[0])
    for ax in d.axes:
        assert d.algebra.mul(ax, ax) == ax
        assert d.form.apply(ax, ax) == rat(1)


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_group_order_and_equivariance(name, catalog):
    # [DERIVED] every relabeling operator must be an algebra automorphism
    # and an isometry — this is the oracle for the completion being right
    d = catalog[name]
    group = mulclose(QQ, list(d.symmetries.values()))
    assert len(group) == EXPECTED_GROUP_ORDERS[name]
    for g in group:
        assert is_automorphism(d.algebra, g, d.form)
    orbit = {tuple(g.matvec(d.axes[0])) for g in group}
    assert len(orbit) == d.n_axes


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_dihedral_generators_are_the_index_relabelings(name):
    # [TRIVIAL] tau_0: a_k -> a_-k and swap_01: a_k -> a_1-k wherever the
    # image index lies in the basis (so swap_01 swaps a_0 and a_1);
    # outside it the image index is k again mod n, so the axis is fixed.
    # Extra vectors are fixed by both.
    labels, _, gens = dihedral_seeds(name)
    assert list(gens) == ["tau_0", "swap_01"]
    axes = {lab: int(lab[2:]) for lab in labels
            if lab[2:].lstrip("-").isdigit()}
    for gen_name, index_map in (("tau_0", lambda k: -k),
                                ("swap_01", lambda k: 1 - k)):
        g = gens[gen_name]
        assert all(x in (0, 1) for row in g.data for x in row)
        assert all(sum(row) == 1 for row in g.data)
        image = {}
        for j, lab in enumerate(labels):
            (i,) = [i for i in range(len(labels)) if g.data[i][j] == 1]
            image[lab] = labels[i]
        for lab in labels:
            if lab in axes:
                target = f"a_{index_map(axes[lab])}"
                assert image[lab] == (target if target in labels else lab)
            else:
                assert image[lab] == lab


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_closure_of_two_generating_axes(name, catalog):
    d = catalog[name]
    a0 = d.axes[d.axis_keys.index(0)]
    a1 = d.axes[d.axis_keys.index(1)]
    assert len(subalgebra_closure(d.algebra, [a0, a1])) == d.algebra.dim


# ---------------------------------------------------------------------------
# published structure constants (spot checks)  [PUBLISHED]
# ---------------------------------------------------------------------------

def test_3a_products(catalog):
    alg = catalog["3A"].algebra
    p = alg.mul(alg.basis_vector("a_0"), alg.basis_vector("a_1"))
    assert p == alg.vector({"a_0": "1/16", "a_1": "1/16", "a_-1": "1/32",
                            "u_rho": "-135/2048"})
    assert catalog["3A"].form.apply(alg.basis_vector("a_0"),
                                    alg.basis_vector("a_1")) == rat("13/256")


def test_2a_rho_is_an_axis(catalog):
    d = catalog["2A"]
    alg = d.algebra
    rho = alg.basis_vector("a_rho")
    assert alg.is_idempotent(rho)
    assert d.form.apply(rho, rho) == rat(1)
    dec = axis_decomposition(alg, rho, MONSTER_EVS)
    assert verify_fusion(alg, dec, monster_rule()) == []


def test_5a_w_sign_convention(catalog):
    # the coefficient of w_rho flips between a_0 a_1 and a_0 a_2, and the
    # relabeling b_k = a_{2k mod 5} with w -> -w is an automorphism
    d = catalog["5A"]
    alg = d.algebra
    a0 = alg.basis_vector("a_0")
    iw = alg.index("w_rho")
    assert alg.mul(a0, alg.basis_vector("a_1"))[iw] == rat(1)
    assert alg.mul(a0, alg.basis_vector("a_2"))[iw] == rat(-1)

    def canon(k):
        k %= 5
        return k - 5 if k > 2 else k

    n = alg.dim
    m = [[QQ.zero] * n for _ in range(n)]
    for k in (-2, -1, 0, 1, 2):
        m[alg.index(f"a_{canon(2 * k)}")][alg.index(f"a_{k}")] = QQ.one
    m[iw][iw] = QQ.of(-1)
    assert is_automorphism(alg, Matrix(QQ, m), d.form)


def test_6a_rho_u_annihilate(catalog):
    alg = catalog["6A"].algebra
    rho, u = alg.basis_vector("a_rho"), alg.basis_vector("u_rho")
    assert alg.mul(rho, u) == tuple([QQ.zero] * alg.dim)
    assert catalog["6A"].form.apply(rho, u) == rat(0)


# ---------------------------------------------------------------------------
# subalgebra inclusions  [PUBLISHED]
# ---------------------------------------------------------------------------

def _pairs_match(alg, sub_labels, ref, ref_map):
    """Products of the labeled vectors in alg match the reference algebra
    under the label identification ref_map (alg label -> ref label)."""
    for la in sub_labels:
        for lb in sub_labels:
            p = alg.mul(alg.basis_vector(la), alg.basis_vector(lb))
            expect = ref.mul(ref.basis_vector(ref_map[la]),
                             ref.basis_vector(ref_map[lb]))
            got = {ref_map[lab]: c for lab, c in zip(alg.labels, p)
                   if not alg.field.is_zero(c)}
            if ref.vector(got) != expect:
                return False
    return True


def test_4b_contains_2a(catalog):
    alg = catalog["4B"].algebra
    closure = subalgebra_closure(alg, [alg.basis_vector("a_0"),
                                       alg.basis_vector("a_2")])
    assert len(closure) == 3
    assert _pairs_match(alg, ("a_0", "a_2", "a_rho"), catalog["2A"].algebra,
                        {"a_0": "a_0", "a_2": "a_1", "a_rho": "a_rho"})


def test_4a_contains_2b(catalog):
    alg = catalog["4A"].algebra
    a0, a2 = alg.basis_vector("a_0"), alg.basis_vector("a_2")
    assert alg.mul(a0, a2) == tuple([QQ.zero] * alg.dim)
    assert catalog["4A"].form.apply(a0, a2) == rat(0)
    assert len(subalgebra_closure(alg, [a0, a2])) == 2


def test_6a_contains_2a_and_3a(catalog):
    alg = catalog["6A"].algebra
    # {a_0, a_3} generates a 2A sharing a_rho
    closure = subalgebra_closure(alg, [alg.basis_vector("a_0"),
                                       alg.basis_vector("a_3")])
    assert len(closure) == 3
    assert _pairs_match(alg, ("a_0", "a_3", "a_rho"), catalog["2A"].algebra,
                        {"a_0": "a_0", "a_3": "a_1", "a_rho": "a_rho"})
    # {a_0, a_2} generates a 3A sharing u_rho
    closure = subalgebra_closure(alg, [alg.basis_vector("a_0"),
                                       alg.basis_vector("a_2")])
    assert len(closure) == 4
    assert _pairs_match(alg, ("a_0", "a_2", "a_-2", "u_rho"),
                        catalog["3A"].algebra,
                        {"a_0": "a_0", "a_2": "a_1", "a_-2": "a_-1",
                         "u_rho": "u_rho"})


# ---------------------------------------------------------------------------
# reference eigenvectors  [PUBLISHED]
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_reference_eigenvectors_lie_in_eigenspaces(name, catalog):
    d = catalog[name]
    alg = d.algebra
    a0 = d.axes[d.axis_keys.index(0)]
    for lam, vecs in d.reference_eigenvectors.items():
        for v in vecs:
            assert alg.mul(a0, v) == tuple(lam * x for x in v)
