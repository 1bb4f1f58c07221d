"""Subspaces as RREF bases: closure, the ideal test, coordinates and the
quotient against the field loops they replaced.

axia.algebra takes a closure and tests an ideal by the rank of one stacked
matrix, and reads coordinates and the remainder modulo a subspace off the
pivots of its RREF basis (axia.linalg.remainder_map).  Here they must give
the same values, by == and by repr, as tests/elimination_reference.py,
which grows and tests spans one vector at a time in field arithmetic, on
every span the certifier takes; and the empty and the whole subspace must
come out as they did.  The table that subalgebra_closure reads off its last
round of products must equal the reference's subalgebra_algebra, which
multiplies the closure's basis out again.
"""

import pytest

import elimination_reference as ref
from axia.algebra import quotient, radical, subalgebra_closure
from axia.catalog import DIHEDRAL_TYPES, dihedral
from axia.errors import NotAnIdeal
from axia.linalg import unit_vec
from axia.m4 import build_m4a, build_m4b, specialize_m4a
from ideal_reference import is_ideal


def _same(got, want):
    """Equal, and equal in repr: the same canonical scalars."""
    assert got == want
    assert repr(got) == repr(want)


def _outcome(f, *args):
    """("ok", value) or (exception type, message) of f(*args)."""
    try:
        return "ok", f(*args)
    except (ValueError, NotAnIdeal) as exc:
        return type(exc), str(exc)


def _v_axes(alg):
    return [alg.basis_vector(f"v_{i}{j}") for i, j in ((1, 2), (1, 3), (2, 3))]


def _axis_pair(name):
    d = dihedral(name)
    return d, [d.axes[d.axis_keys.index(0)], d.axes[d.axis_keys.index(1)]]


CASES = {
    "m4a-v-axes": lambda: (build_m4a(), _v_axes(build_m4a().algebra)),
    "m4a-axes": lambda: (build_m4a(), build_m4a().axes),
    "m4a-one-axis": lambda: (build_m4a(), build_m4a().axes[:1]),
    "m4b-axes": lambda: (build_m4b(), build_m4b().axes),
    "m4b-empty": lambda: (build_m4b(), []),
    **{f"dihedral-{name}": (lambda name=name: _axis_pair(name))
       for name in DIHEDRAL_TYPES},
    **{f"radical@{t0}": (lambda t0=t0: (specialize_m4a(t0),
                                        radical(specialize_m4a(t0).form)))
       for t0 in ("0", "1/6", "9/4")},
}


@pytest.mark.parametrize("case", list(CASES))
def test_spans_equal_field_loops(case):
    built, gens = CASES[case]()
    alg, form = built.algebra, built.form
    closure, sub, coords = subalgebra_closure(alg, gens)
    rclosure = ref.subalgebra_closure(alg, gens)
    _same(closure, rclosure)
    rsub, rcoords = ref.subalgebra_algebra(alg, rclosure)
    _same((sub.labels, sub.mul_table), (rsub.labels, rsub.mul_table))
    basis = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
    for v in list(gens) + built.axes + basis:
        _same(_outcome(coords, v), _outcome(rcoords, v))

    for space in (gens, closure):
        _same(is_ideal(alg, space), ref.is_ideal(alg, space))

    got, want = (_outcome(q, alg, form, gens)
                 for q in (quotient, ref.quotient))
    assert got[0] == want[0]
    if got[0] != "ok":
        _same(got[1], want[1])
        return
    (qalg, qform, project), (ralg, rform, rproject) = got[1], want[1]
    _same((qalg.labels, qalg.mul_table), (ralg.labels, ralg.mul_table))
    _same(qform.gram.data, rform.gram.data)
    _same([project(a) for a in built.axes], [rproject(a) for a in built.axes])


def test_the_cases_reach_ideals_and_non_ideals():
    # [TRIVIAL] the comparison above meets both outcomes of the ideal test
    # and of quotient: each radical is an ideal in the form's kernel, and
    # the axes of M_4A and M_4B span no ideal
    ideal = {case: is_ideal(built.algebra, gens)
             for case, (built, gens) in ((c, CASES[c]()) for c in CASES)}
    assert all(ideal[c] for c in CASES if c.startswith("radical"))
    assert not ideal["m4a-v-axes"] and not ideal["m4b-axes"]


@pytest.mark.parametrize("case", ["2A", "radical+axis@1/6"])
def test_is_ideal_rejects_a_subspace_that_products_leave(case):
    # [TRIVIAL] a_0 a_1 escapes span{a_0} in 2A; at 1/6 the radical plus
    # one axis is not closed under products with the basis
    if case == "2A":
        built = dihedral("2A")
        space = [built.algebra.basis_vector("a_0")]
    else:
        built = specialize_m4a("1/6")
        space = radical(built.form) + [built.axes[0]]
    assert not is_ideal(built.algebra, space)
    assert not ref.is_ideal(built.algebra, space)
    with pytest.raises(NotAnIdeal):
        quotient(built.algebra, built.form, space)


# ---------------------------------------------------------------------------
# the empty and the whole subspace
# ---------------------------------------------------------------------------

def _records():
    return {"QQ": build_m4b(), "QT": build_m4a()}


@pytest.mark.parametrize("field", ["QQ", "QT"])
def test_empty_and_whole_closure(field):
    alg = _records()[field].algebra
    basis = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
    assert subalgebra_closure(alg, [])[0] == [] == ref.subalgebra_closure(
        alg, [])
    _same(subalgebra_closure(alg, basis)[0], basis)


@pytest.mark.parametrize("field", ["QQ", "QT"])
def test_empty_and_whole_subalgebra(field):
    alg = _records()[field].algebra
    basis = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
    _, whole, coords = subalgebra_closure(alg, basis)
    _same(whole.mul_table, alg.mul_table)
    for v in basis + [alg.mul(basis[0], basis[-1])]:
        _same(coords(v), v)
    _, empty, coords = subalgebra_closure(alg, [])
    assert empty.dim == 0 and empty.mul_table == []
    assert coords(tuple(alg.field.zero for _ in basis)) == ()
    for v in basis:
        with pytest.raises(ValueError):
            coords(v)


@pytest.mark.parametrize("field", ["QQ", "QT"])
def test_empty_and_whole_ideal(field):
    alg = _records()[field].algebra
    basis = [unit_vec(alg.field, alg.dim, i) for i in range(alg.dim)]
    assert is_ideal(alg, []) and ref.is_ideal(alg, [])
    assert is_ideal(alg, basis) and ref.is_ideal(alg, basis)


@pytest.mark.parametrize("field", ["QQ", "QT"])
def test_quotient_by_zero_is_the_algebra(field):
    built = _records()[field]
    alg, form = built.algebra, built.form
    qalg, qform, project = quotient(alg, form, [])
    assert qalg.labels == alg.labels
    _same(qalg.mul_table, alg.mul_table)
    _same(qform.gram, form.gram)
    for i in range(alg.dim):
        v = unit_vec(alg.field, alg.dim, i)
        _same(project(v), v)
    for a in built.axes:
        _same(project(a), a)
