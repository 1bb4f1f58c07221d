"""Equivariant completion of product tables and forms."""

import pytest

from axia.catalog import DIHEDRAL_TYPES, dihedral, dihedral_seeds
from axia.completion import complete_algebra, complete_table
from axia.errors import CompletionInconsistent, CompletionInsufficient
from axia.linalg import Matrix
from axia.m4 import M4A_LABELS, M4B_LABELS, _embed, m4a_seeds, m4a_symmetries
from axia.scalars import QQ, QT, rat
from group_reference import mulclose


def qm(rows):
    return Matrix(QQ, [[rat(x) for x in row] for row in rows])


SWAP = qm([[0, 1], [1, 0]])
IDENT2 = Matrix.identity(QQ, 2)


def test_mulclose_orders():
    assert len(mulclose(QQ, [IDENT2])) == 1
    assert len(mulclose(QQ, [SWAP])) == 2
    # 3-cycle and a transposition generate S_3 (order 6)
    cyc = qm([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    tr = qm([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert len(mulclose(QQ, [cyc, tr])) == 6


def test_complete_table_under_swap():
    # seed only e_0 products; the swap symmetry fills in the e_1 side
    known = {
        (0, 0): (rat(1), rat(0)),
        (0, 1): (rat("1/2"), rat("1/2")),
    }
    table = complete_table(QQ, 2, known, mulclose(QQ, [SWAP]))
    assert table[(1, 1)] == (rat(0), rat(1))
    assert table[(0, 1)] == (rat("1/2"), rat("1/2"))


def test_complete_table_identity_group_leaves_entries_unchanged():
    known = {(0, 0): (rat(1), rat(0)), (0, 1): (rat(0), rat(0)),
             (1, 1): (rat(0), rat(1))}
    table = complete_table(QQ, 2, dict(known), [IDENT2])
    assert table == known


def test_complete_table_insufficient_seeds():
    known = {(0, 0): (rat(1), rat(0))}
    with pytest.raises(CompletionInsufficient) as exc:
        complete_table(QQ, 2, known, [IDENT2])
    assert len(exc.value.missing_pairs) == 2  # (0,1) and (1,1)


def test_complete_table_inconsistent_seeds():
    # the swap maps e_0^2 -> e_1^2, so asymmetric squares contradict it
    known = {
        (0, 0): (rat(1), rat(0)),
        (1, 1): (rat(0), rat("1/2")),
        (0, 1): (rat(0), rat(0)),
    }
    with pytest.raises(CompletionInconsistent):
        complete_table(QQ, 2, known, mulclose(QQ, [SWAP]))


def test_inconsistency_through_a_derived_entry():
    # NEG1 fixes e_0 and negates e_1.  It agrees with both seeds, and the
    # swap derives e_1^2 = e_1 from e_0^2 = e_0; only then does NEG1 see
    # (e_1^2)^NEG1 = -e_1 differ from (e_1^NEG1)^2 = e_1^2 = e_1.
    neg1 = qm([[1, 0], [0, -1]])
    known = {(0, 0): (rat(1), rat(0)), (0, 1): (rat(0), rat(0))}
    table = complete_table(QQ, 2, dict(known), [SWAP])
    assert table[(1, 1)] == (rat(0), rat(1))
    with pytest.raises(CompletionInconsistent):
        complete_table(QQ, 2, dict(known), [neg1, SWAP])
    with pytest.raises(CompletionInconsistent):
        complete_table(QQ, 2, dict(known), [SWAP, neg1])


def test_combination_waiting_on_two_pairs_is_used_once_one_remains():
    # Q^3 with idempotents eps_1, eps_2, eps_3 in the basis e_0 = eps_1,
    # e_1 = eps_1 + eps_2, e_2 = eps_1 + eps_2 + eps_3, under S_3 permuting
    # the eps_i.  Some images of e_0^2 expand into the two unknowns (1,1)
    # and (1,2); the images of e_0 e_2 derive (1,2) first, and only the
    # waiting e_0^2 combinations can then derive (1,1).
    swap12 = qm([[-1, 0, 0], [1, 1, 0], [0, 0, 1]])
    swap23 = qm([[1, 1, 0], [0, -1, 0], [0, 1, 1]])
    group = mulclose(QQ, [swap12, swap23])
    assert len(group) == 6
    e0, e1, e2 = [tuple(rat(int(i == k)) for i in range(3)) for k in range(3)]
    known = {(0, 0): e0, (2, 2): e2, (0, 2): e0}
    table = complete_table(QQ, 3, known, group)
    assert table[(1, 1)] == e1
    assert table[(0, 1)] == e0
    assert table[(1, 2)] == e1


def test_complete_table_form_coordinate_under_swap():
    # one extra coordinate, the form value, which the swap leaves fixed:
    # the swap derives e_1^2 = e_1 and <e_1, e_1> = 1 from the e_0 seeds
    known = {(0, 0): (rat(1), rat(0), rat(1)),
             (0, 1): (rat(0), rat(0), rat("1/8"))}
    table = complete_table(QQ, 2, known, [SWAP])
    assert table[(1, 1)] == (rat(0), rat(1), rat(1))


def test_complete_table_form_coordinate_inconsistent():
    # the products agree with the swap; the form values on e_0^2 and e_1^2
    # do not
    known = {(0, 0): (rat(1), rat(0), rat(1)),
             (1, 1): (rat(0), rat(1), rat(2)),
             (0, 1): (rat(0), rat(0), rat(0))}
    with pytest.raises(CompletionInconsistent,
                       match="contradicts known entries"):
        complete_table(QQ, 2, known, [SWAP])


def test_complete_algebra_disagreeing_seeds():
    seeds = [(("e_0", "e_0"), {"e_0": 1}, 1),
             (("e_0", "e_1"), {}, 0),
             (("e_1", "e_1"), {"e_1": 1}, 1),
             (("e_1", "e_0"), {}, "1/8")]
    with pytest.raises(CompletionInconsistent, match=r"\(e_1, e_0\)"):
        complete_algebra(QQ, ["e_0", "e_1"], seeds, [SWAP])


def test_m4b_copies_must_agree_where_they_overlap():
    # the 4B copies on {1, 2} and {1, 3} share the 2A pair {a_1, a_-1};
    # alter its a_0 a_2 product in the second copy
    d4b = dihedral("4B")
    seeds = _embed(d4b, 1, 2, "a_rho") + _embed(d4b, 2, 3, "a_rho")
    for (u, v), product, form_value in _embed(d4b, 1, 3, "a_rho"):
        if (u, v) == ("a_1", "a_-1"):
            product = dict(product, a_rho=rat("-1/4"))
        seeds.append(((u, v), product, form_value))
    with pytest.raises(CompletionInconsistent, match=r"\(a_1, a_-1\)"):
        complete_algebra(QQ, M4B_LABELS, seeds, [])


def _assembly(name):
    if name == "M_4A":
        return (QT, M4A_LABELS, m4a_seeds(),
                list(m4a_symmetries().values()))
    labels, seeds, generators = dihedral_seeds(name)
    return QQ, labels, seeds, list(generators.values())


@pytest.mark.parametrize("name", DIHEDRAL_TYPES + ("M_4A",))
def test_generators_complete_as_the_closed_group(name):
    # completing under the generators gives, entry for entry, the table
    # and form that completing under the whole group gives
    field, labels, seeds, generators = _assembly(name)
    alg, form = complete_algebra(field, labels, seeds, generators)
    ref_alg, ref_form = complete_algebra(field, labels, seeds,
                                         mulclose(field, generators))
    assert alg.mul_table == ref_alg.mul_table
    assert form.gram == ref_form.gram


@pytest.mark.parametrize("name", DIHEDRAL_TYPES + ("M_4A",))
def test_generator_order_does_not_change_the_completion(name):
    field, labels, seeds, generators = _assembly(name)
    alg, form = complete_algebra(field, labels, seeds, generators)
    rev_alg, rev_form = complete_algebra(field, labels, seeds,
                                         generators[::-1])
    assert alg.mul_table == rev_alg.mul_table
    assert form.gram == rev_form.gram
