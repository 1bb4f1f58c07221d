"""Equivariant completion of product tables and forms."""

import re

import pytest

from axia import completion
from axia.catalog import DIHEDRAL_TYPES, dihedral, dihedral_seeds
from axia.completion import complete_algebra, complete_table
from axia.errors import CompletionInconsistent, CompletionInsufficient
from axia.linalg import Matrix
from axia.m4 import (M4A_LABELS, M4B_LABELS, _dihedral_seeds_on_12,
                     m4_symmetries, m4a_seeds)
from axia.scalars import QQ, QT, rat
import completion_reference
from group_reference import mulclose
from m4_reference import embed


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
    seeds = embed(d4b, 1, 2, "a_rho") + embed(d4b, 2, 3, "a_rho")
    for (u, v), product, form_value in embed(d4b, 1, 3, "a_rho"):
        if (u, v) == ("a_1", "a_-1"):
            product = dict(product, a_rho=rat("-1/4"))
        seeds.append(((u, v), product, form_value))
    with pytest.raises(CompletionInconsistent, match=r"\(a_1, a_-1\)"):
        complete_algebra(QQ, M4B_LABELS, seeds, [])


def test_tampered_m4b_seed_breaks_a_symmetry():
    # tau_2 swaps a_1 and a_-1, so their product must be symmetric in them
    seeds = []
    for (u, v), product, form_value in _dihedral_seeds_on_12("4B", "a_rho"):
        if (u, v) == ("a_1", "a_-1"):
            product = {**product, "a_-1": rat("1/4")}
        seeds.append(((u, v), product, form_value))
    generators = list(m4_symmetries(M4B_LABELS, QQ).values())
    complete_algebra(QQ, M4B_LABELS,
                     _dihedral_seeds_on_12("4B", "a_rho"), generators)
    with pytest.raises(CompletionInconsistent):
        complete_algebra(QQ, M4B_LABELS, seeds, generators)


def _assembly(name):
    if name == "M_4A":
        return (QT, M4A_LABELS, m4a_seeds(),
                list(m4_symmetries(M4A_LABELS, QT).values()))
    if name == "M_4B":
        return (QQ, M4B_LABELS, _dihedral_seeds_on_12("4B", "a_rho"),
                list(m4_symmetries(M4B_LABELS, QQ).values()))
    labels, seeds, generators = dihedral_seeds(name)
    return QQ, labels, seeds, list(generators.values())


@pytest.mark.parametrize("name", DIHEDRAL_TYPES + ("M_4A", "M_4B"))
def test_generators_complete_as_the_closed_group(name):
    # completing under the generators gives, entry for entry, the table
    # and form that completing under the whole group gives
    field, labels, seeds, generators = _assembly(name)
    alg, form = complete_algebra(field, labels, seeds, generators)
    ref_alg, ref_form = complete_algebra(field, labels, seeds,
                                         mulclose(field, generators))
    assert alg.mul_table == ref_alg.mul_table
    assert form.gram == ref_form.gram


@pytest.mark.parametrize("name", DIHEDRAL_TYPES + ("M_4A", "M_4B"))
def test_generator_order_does_not_change_the_completion(name):
    field, labels, seeds, generators = _assembly(name)
    alg, form = complete_algebra(field, labels, seeds, generators)
    rev_alg, rev_form = complete_algebra(field, labels, seeds,
                                         generators[::-1])
    assert alg.mul_table == rev_alg.mul_table
    assert form.gram == rev_form.gram


BUILDS = DIHEDRAL_TYPES + ("M_4A", "M_4B")


class _Args(Exception):
    pass


def _table_args(field, labels, seeds, generators):
    """The arguments complete_algebra passes complete_table for these
    seeds; the table itself is not completed."""
    def record(*args):
        raise _Args(args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion, "complete_table", record)
        with pytest.raises(_Args) as exc:
            complete_algebra(field, labels, seeds, generators)
    return exc.value.args[0]


def _outcome(complete, args):
    """complete(*args): the completed dict, or the completion error."""
    try:
        return complete(*args)
    except (CompletionInconsistent, CompletionInsufficient) as exc:
        return exc


def _reference_outcome(args):
    """_outcome of complete_table, after asserting that the reference
    sweep gives the same dict or raises the same error class."""
    done = _outcome(complete_table, args)
    ref = _outcome(completion_reference.complete_table, args)
    if isinstance(ref, Exception):
        assert type(done) is type(ref), (done, ref)
    else:
        assert done == ref
    return done


@pytest.mark.parametrize("name", BUILDS)
def test_completed_tables_equal_the_reference_sweep(name):
    field, labels, seeds, generators = _assembly(name)
    done = _reference_outcome(_table_args(field, labels, seeds, generators))
    # every pair, each with its product and its form coordinate
    assert len(done) == len(labels) * (len(labels) + 1) // 2
    assert {len(v) for v in done.values()} == {len(labels) + 1}


@pytest.mark.parametrize("name", BUILDS)
def test_the_sweep_evaluates_only_the_combinations_that_derive(
        monkeypatch, name):
    # one matvec per derived pair: a combination whose expansion has no
    # unknown pair is dropped unevaluated, and its identity is decided
    # after the sweep, on integers
    args = _table_args(*_assembly(name))
    calls = []
    matvec = Matrix.matvec

    def counting(self, v):
        calls.append(v)
        return matvec(self, v)
    monkeypatch.setattr(Matrix, "matvec", counting)
    done = complete_table(*args)
    assert len(calls) == len(done) - len(args[2]) > 0


def _tampered(field, labels, seeds):
    """One tampered copy of the seeds per seed and delta: seed s gains
    delta at coordinate s mod (dim + 1) of its product, or in its form
    value when that is dim; the deltas are 1/1000 and, over Q(t),
    t/1000."""
    deltas = [rat("1/1000")] + ([QT.t / 1000] if field is QT else [])
    for s, ((u, v), product, value) in enumerate(seeds):
        k = s % (len(labels) + 1)
        for delta in deltas:
            if k < len(labels):
                lab = labels[k]
                seed = ((u, v), {**product, lab: field.of(product.get(lab, 0))
                                 + delta}, value)
            else:
                seed = ((u, v), product, field.of(value) + delta)
            yield seeds[:s] + [seed] + seeds[s + 1:]


@pytest.mark.parametrize("name", BUILDS)
def test_tampered_seeds_get_the_reference_outcome(name):
    field, labels, seeds, generators = _assembly(name)
    for tampered in _tampered(field, labels, seeds):
        done = _reference_outcome(
            _table_args(field, labels, tampered, generators))
        if isinstance(done, CompletionInconsistent):
            pair = re.search(r"\(([^,()]+), ([^,()]+)\)", str(done))
            assert pair and set(pair.groups()) <= set(labels), str(done)


@pytest.mark.parametrize("name", BUILDS)
def test_dropped_seeds_get_the_reference_outcome(name):
    # each seed dropped from the seeds and from their first tampered copy,
    # so that some tables are both incomplete and inconsistent
    field, labels, seeds, generators = _assembly(name)
    for base in (seeds, next(_tampered(field, labels, seeds))):
        for s in range(len(base)):
            _reference_outcome(_table_args(
                field, labels, base[:s] + base[s + 1:], generators))
