"""Test-only references for the Norton form.

axia decides Norton's inequality on the blocks over the exterior square
(axia.certify.norton_blocks), which it computes on integer or polynomial
numerators.  norton_block_reference computes the one ungraded block entry
by entry in field arithmetic, and norton_matrix expands that reference to
the whole n^2 x n^2 matrix.  tests/test_certify.py checks the reference
against the defining formula, the fast block against the reference, and
the block's LDLT against the LDLT of the whole matrix.

norton_check_reference and gram_pd_reference are the point verdicts as
they were made before the graded basis: on the basis a_{+-k}, v_ij, w_k,
from one LDLT of the 66 x 66 block and one of the Gram matrix.
definiteness_at, radical_dimension and quotient_certify are the
definiteness, radical and quotient verdicts as they were made on that
basis too, copied from axia.certify before every point verdict moved to
the graded basis; the only edit is the trivial grading that
quotient_certify now passes to norton_psd.  tests/test_norton_graded.py
holds the graded verdicts to them.  Every evaluation at a point here goes
through the earlier evaluators in m4_reference, not through at(t0).
"""

from axia.algebra import (axis_decomposition, quotient, radical,
                          verify_fusion)
from axia.catalog import monster_rule
from axia.certify import norton_blocks, norton_psd
from axia.errors import NotIdempotent, NotSemisimple
from axia.linalg import Matrix, ldlt
from axia.m4 import build_m4a
from axia.scalars import format_rational, rat
from m4_reference import specialize_form, specialize_m4a


def norton_check_reference(t0) -> bool:
    """The Norton verdict at t0 from the LDLT of the ungraded 66 x 66
    block of specialize_m4a(t0)."""
    spec = specialize_m4a(t0)
    (block,) = norton_blocks(spec.algebra, spec.form,
                             [0] * spec.algebra.dim)
    return ldlt(block).is_psd()


def gram_pd_reference(t0) -> bool:
    """Positive definiteness at t0 from the LDLT of the Gram matrix of
    specialize_m4a(t0)."""
    return ldlt(specialize_m4a(t0).form.gram).is_pd()


def definiteness_at(t0):
    """(pd, psd, radical_dim) of the specialized Gram matrix at t = t0."""
    form = specialize_form(build_m4a().form, t0)
    result = ldlt(form.gram)
    return result.is_pd(), result.is_psd(), len(radical(form))


def radical_dimension(t0) -> int:
    return len(radical(specialize_form(build_m4a().form, t0)))


def quotient_certify(t0):
    """At a boundary point (radical dimension 3): quotient by the radical
    and re-certify Monster fusion, positive definiteness and Norton."""
    t0 = rat(t0)
    spec = specialize_m4a(t0)
    rad = radical(spec.form)
    report = {"t0": format_rational(t0), "radical_dim": len(rad)}
    if len(rad) != 3:
        report.update({"pass": False,
                       "reason": f"expected radical dim 3, got {len(rad)}"})
        return report
    qalg, qform, project = quotient(spec.algebra, spec.form, rad)
    report["quotient_dim"] = qalg.dim
    rule = monster_rule()
    fusion_ok = True
    for ax, key in zip(spec.axes, spec.axis_keys):
        try:
            dec = axis_decomposition(qalg, project(ax), rule.eigenvalues)
        except (NotIdempotent, NotSemisimple) as exc:
            report.setdefault("axis_failures", []).append(f"a_{key}: {exc}")
            fusion_ok = False
            continue
        if not dec.is_primitive or verify_fusion(qalg, dec, rule):
            fusion_ok = False
    gram_pd = ldlt(qform.gram).is_pd()
    norton_ok = norton_psd(qalg, qform, [0] * qalg.dim)
    report.update({
        "fusion_ok": fusion_ok, "gram_pd": gram_pd,
        "norton_psd": norton_ok,
        "pass": (qalg.dim == 9 and fusion_ok and gram_pd and norton_ok),
    })
    return report


def norton_block_reference(alg, form) -> Matrix:
    """b[(i,j),(k,l)] = <e_i e_k, e_j e_l> - <e_j e_k, e_i e_l> on the pairs
    i < j, in lexicographic order, from the product table and the Gram
    matrix in field arithmetic."""
    field = alg.field
    n = alg.dim
    z = field.zero
    is_zero = field.is_zero
    table = alg.mul_table
    gram = form.gram.data
    # gp[i][k] = Gram * (e_i e_k): inner products against all basis vectors
    gp = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            prod = table[i][k]
            row = tuple(sum((gram[r][c] * prod[c] for c in range(n)
                             if not is_zero(prod[c])), z) for r in range(n))
            gp[i][k] = row
            gp[k][i] = row

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v) if not (is_zero(a))), z)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    size = len(pairs)
    data = [[z] * size for _ in range(size)]
    for r, (i, j) in enumerate(pairs):
        for s in range(r, size):
            k, l = pairs[s]
            val = dot(table[i][k], gp[j][l]) - dot(table[j][k], gp[i][l])
            data[r][s] = val
            data[s][r] = val
    return Matrix(field, data)


def norton_matrix(alg, form) -> Matrix:
    """The antisymmetrized product-form matrix on all n^2 ordered basis
    pairs, expanded from norton_block_reference: b[(j,i), .] = -b[(i,j), .]
    and the rows (i,i) are zero."""
    field = alg.field
    n = alg.dim
    z = field.zero
    block = norton_block_reference(alg, form).data
    # where[(i, j)] = (index of the pair i<j or j<i in the block, sign)
    where = {}
    wedge_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for r, (i, j) in enumerate(wedge_pairs):
        where[(i, j)] = (r, False)
        where[(j, i)] = (r, True)
    pairs = [where.get((i, j)) for i in range(n) for j in range(n)]
    data = []
    for rp in pairs:
        if rp is None:
            data.append([z] * (n * n))
            continue
        r, rneg = rp
        brow = block[r]
        negrow = [-x for x in brow]
        data.append([z if sp is None
                     else (negrow if rneg != sp[1] else brow)[sp[0]]
                     for sp in pairs])
    return Matrix(field, data)
