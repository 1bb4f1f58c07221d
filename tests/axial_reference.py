"""The direct per-axis verification suites, kept as a differential oracle.

Each suite here decomposes and fusion-checks every axis on its own, with
no symmetry: the loops of certify's _axial_checks and v4a_certify as they
were before one representative per orbit carried its rows to the rest.
tests/test_orbits.py asserts that certify's reports equal these byte for
byte.  The module names build_m4a, build_m4b and dihedral as its own
globals, so a test can rebind them here and in certify alike.
subalgebra_closure and subalgebra_algebra are the two functions that
built the Jordan closure and its table before the closure returned its
own table, copied verbatim.  is_automorphism is the check as it was
before it was decided on integers at one point, copied verbatim: it
compares each image of a basis product through Algebra.mul and
Matrix.matvec over the field, and the suites here use it.
quotient_certify is the boundary-quotient report as it was before the
graded generators carried its axis checks along their orbits, copied
verbatim: it decomposes each of the six quotient axes, evaluated at t0
through m4_reference's specialize_graded_m4a and the earlier inline
loop, not through at(t0); the graded axes are read by their keys.
"""

from axia.algebra import (Algebra, BilinearForm, axis_decomposition,
                          check_graded, quotient, radical, verify_fusion,
                          verify_frobenius, verify_grading)
from axia.catalog import dihedral, f4a_rule, jordan_half_rule, monster_rule
from axia.certify import (Checks, _fusion_result, _in_eigenspaces,
                          f4a_grading, norton_psd)
from axia.errors import NotAnIdeal, NotIdempotent, NotSemisimple
from axia.linalg import (Matrix, ldlt, remainder_map, span_rref, upper_pairs,
                         vec_is_zero)
from axia.m4 import (build_m4a, build_m4b, graded_m4a,
                     reference_v_eigenvectors, verify_dependencies)
from axia.scalars import QT, format_rational, rat
from m4_reference import specialize_graded_m4a


def is_automorphism(alg: Algebra, T: Matrix, form: BilinearForm) -> bool:
    """True iff T maps every basis product e_i e_j to T e_i . T e_j and
    T^T G T == G for the Gram matrix G of the form."""
    n = alg.dim
    cols = [tuple(row[i] for row in T.data) for i in range(n)]
    for i, j in upper_pairs(n):
        if T.matvec(alg.mul_table[i][j]) != alg.mul(cols[i], cols[j]):
            return False
    return T.transpose().matmul(form.gram.matmul(T)) == form.gram


def subalgebra_closure(alg: Algebra, generators):
    """RREF basis of the smallest product-closed subspace containing the
    generators: the span of the basis and all its pairwise products, taken
    until the rank stops growing."""
    field = alg.field
    basis = span_rref(field, [tuple(g) for g in generators])[0].data
    while True:
        basis = [tuple(r) for r in basis]
        grown = span_rref(field, basis + [alg.mul(u, v)
                                          for i, u in enumerate(basis)
                                          for v in basis[i:]])[0].data
        if len(grown) == len(basis):
            return basis
        basis = grown


def subalgebra_algebra(alg: Algebra, basis_vectors):
    """Materialize a product-closed subspace as an Algebra in its own
    coordinates; returns (Algebra, coords) where coords maps an ambient
    vector inside the subspace to subalgebra coordinates, its entries at
    the pivots of the subspace's RREF basis."""
    field = alg.field
    m, pivots = span_rref(field, [tuple(v) for v in basis_vectors])
    rest = remainder_map(field, m, pivots, alg.dim)[1]

    def coords(v):
        if not vec_is_zero(field, rest(v)):
            raise ValueError("vector outside the subalgebra")
        return tuple(v[p] for p in pivots)

    rows = [tuple(r) for r in m.data]
    products = {(i, j): coords(alg.mul(rows[i], rows[j]))
                for i, j in upper_pairs(len(rows))}
    return (Algebra(field, [f"s_{i}" for i in range(len(rows))], products),
            coords)


def v4a_certify():
    """Certify each 4A axis v_(i,j) of the symbolic M_4A: idempotency,
    eigenspace dims (1, 4, 4, 2, 1), published eigenvectors, the 4A-axis
    fusion rule and its C2 x C2 grading; plus the 9-dimensional Jordan
    subalgebra generated by the three v's."""
    m4a = build_m4a()
    alg = m4a.algebra
    rule = f4a_rule()
    checks = Checks()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        lab = f"v_{i}{j}"
        v = alg.basis_vector(lab)
        checks.add(f"{lab} idempotent", True, alg.is_idempotent(v))
        dec = _decompose(checks, lab, alg, v, rule.eigenvalues)
        if dec is None:
            continue
        checks.add(f"{lab} eigenspace dims", (1, 4, 4, 2, 1), dec.dims)
        checks.add(f"{lab} reference eigenvectors", True,
                   _in_eigenspaces(alg, v, reference_v_eigenvectors(i, j)))
        checks.add(f"{lab} fusion violations", 0,
                   len(verify_fusion(alg, dec, rule)))
    checks.add("C2xC2 grading", True, verify_grading(rule, f4a_grading()))

    vlabs = [f"v_{i}{j}" for i, j in ((1, 2), (1, 3), (2, 3))]
    vgens = [alg.basis_vector(lab) for lab in vlabs]
    closure = subalgebra_closure(alg, vgens)
    checks.add("jordan closure dim", 9, len(closure))
    sub, coords = subalgebra_algebra(alg, closure)
    jrule = jordan_half_rule(QT)
    ok = True
    for v, lab in zip(vgens, vlabs):
        dec = _decompose(checks, f"jordan {lab}", sub, coords(v),
                         jrule.eigenvalues)
        if dec is None or verify_fusion(sub, dec, jrule):
            ok = False
    checks.add("jordan fusion on closure", True, ok)
    return checks.report("v4a")


def _decompose(checks, name, alg, axis, eigenvalues):
    """axis_decomposition of axis; None, after adding a failing check
    with the reason, when axis is not idempotent or its adjoint is not
    semisimple."""
    try:
        return axis_decomposition(alg, axis, eigenvalues)
    except (NotIdempotent, NotSemisimple) as exc:
        checks.add(f"{name} decomposition", "idempotent, semisimple",
                   str(exc))
        return None


def _axial_checks(checks, built, rule):
    """Add, for each axis in order, whether it is primitive and its
    number of fusion violations under the rule (or, for an axis that does
    not decompose, the reason), then the number of Frobenius violations
    of the form."""
    alg = built.algebra
    for ax, key in zip(built.axes, built.axis_keys):
        dec = _decompose(checks, f"a_{key}", alg, ax, rule.eigenvalues)
        if dec is None:
            continue
        checks.add(f"a_{key} primitive", True, dec.is_primitive)
        checks.add(f"a_{key} fusion violations", 0,
                   len(verify_fusion(alg, dec, rule)))
    checks.add("frobenius violations", 0,
               len(verify_frobenius(alg, built.form)))


def verify_m4a():
    """Default verification suite for the symbolic M_4A: Monster fusion on
    all six axes, Frobenius property, linear dependencies, symmetry
    operators (automorphisms and isometries)."""
    m4a = build_m4a()
    checks = Checks()
    checks.add("dimension", 12, m4a.algebra.dim)
    _axial_checks(checks, m4a, monster_rule(QT))
    checks.add("dependency violations", 0, len(verify_dependencies(m4a)))
    for name, op in m4a.symmetries.items():
        checks.add(f"{name} automorphism+isometry", True,
                   is_automorphism(m4a.algebra, op, m4a.form))
    return checks.report("m4a")


def verify_m4b():
    """Verification suite for M_4B: dimension, closure of the six axes,
    Monster fusion on each axis and the Frobenius property."""
    m4b = build_m4b()
    checks = Checks()
    checks.add("dimension", 7, m4b.algebra.dim)
    checks.add("closure dim", 7,
               len(subalgebra_closure(m4b.algebra, m4b.axes)))
    _axial_checks(checks, m4b, monster_rule())
    return checks.report("m4b")


def verify_dihedral(name):
    """Verification suite for one dihedral type: Monster fusion on each
    axis, the Frobenius property, the published eigenvectors of a_0 and
    the orbit of the first axis under the relabeling generators."""
    d = dihedral(name)
    checks = Checks()
    _axial_checks(checks, d, monster_rule())
    checks.add("reference eigenvectors", True,
               _in_eigenspaces(d.algebra, d.algebra.basis_vector("a_0"),
                               d.reference_eigenvectors))
    orbit = [d.axes[0]]
    for v in orbit:
        for g in d.symmetries.values():
            w = g.matvec(v)
            if w not in orbit:
                orbit.append(w)
    checks.add("axis orbit size", d.n_axes, len(orbit))
    return checks.report(f"dihedral:{name}")


def quotient_certify(t0):
    """At a boundary point (radical dimension 3): quotient graded_m4a at
    t0 by its radical (one that is no ideal fails the report), check the
    grading and re-certify fusion on the axes S^-1 a_k, PD and Norton."""
    t0 = rat(t0)
    alg, form, grades = specialize_graded_m4a(t0)
    rad = radical(form)
    report = {"t0": format_rational(t0), "radical_dim": len(rad)}
    if len(rad) != 3:
        report.update({"pass": False,
                       "reason": f"expected radical dim 3, got {len(rad)}"})
        return report
    try:
        qalg, qform, project = quotient(alg, form, rad)
    except NotAnIdeal as exc:
        report.update({"pass": False, "reason": f"radical: {exc}"})
        return report
    qgrades = [grades[alg.index(lab)] for lab in qalg.labels]
    check_graded(qalg, qform, qgrades)
    report["quotient_dim"] = qalg.dim
    rule = monster_rule()
    graded = graded_m4a()
    results = {k: _fusion_result(qalg, project([x.evaluate(t0) for x in a]),
                                 rule)
               for k, a in zip(graded.axis_keys, graded.axes)}
    failures = [f"a_{k}: {r.failure}" for k, r in results.items() if r.failure]
    if failures:
        report["axis_failures"] = failures
    fusion_ok = all(r.primitive and r.violations == 0
                    for r in results.values())
    gram_pd = ldlt(qform.gram).is_pd()
    norton_ok = norton_psd(qalg, qform, qgrades)
    report.update({
        "fusion_ok": fusion_ok, "gram_pd": gram_pd,
        "norton_psd": norton_ok,
        "pass": (qalg.dim == 9 and fusion_ok and gram_pd and norton_ok),
    })
    return report
