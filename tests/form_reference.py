"""Test-only references for the table-form contractions.

axia checks the Frobenius identity on the numerators of
axia.algebra.form_products, and builds a quotient's table and Gram matrix
from the product table and the Gram submatrix on the complement columns.
The functions here compute the same things entry by entry in field
arithmetic, through the form applied to basis vectors, so
tests/test_algebra.py can compare the two on tampered and degenerate
structures.
"""

from axia.algebra import Algebra, BilinearForm
from axia.errors import NotAnIdeal
from axia.linalg import Matrix, unit_vec
from elimination_reference import (_reduce, is_ideal, span_rref,
                                   upper_triangle)


def form_apply_reference(form, u, v):
    """<u, v> = sum_ij u_i G[i][j] v_j as a double loop."""
    field = form.field
    acc = field.zero
    for i, ui in enumerate(u):
        if field.is_zero(ui):
            continue
        row = form.gram.data[i]
        s = field.zero
        for j, vj in enumerate(v):
            if not field.is_zero(vj):
                s = s + row[j] * vj
        acc = acc + ui * s
    return acc


def _form_row_dot(field, gram_row, vec):
    acc = field.zero
    for g, v in zip(gram_row, vec):
        if not field.is_zero(v):
            acc = acc + g * v
    return acc


def verify_frobenius_reference(alg, form):
    """Violations of <b_i, b_j b_k> = <b_i b_j, b_k>, each side a Gram row
    dotted with a product-table entry in field arithmetic."""
    field = alg.field
    gram = form.gram.data
    table = alg.mul_table
    n = alg.dim
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(i, n):
                left = _form_row_dot(field, gram[i], table[j][k])
                right = _form_row_dot(field, gram[k], table[i][j])
                if left != right:
                    violations.append({
                        "triple": (alg.labels[i], alg.labels[j], alg.labels[k]),
                        "lhs": str(left),
                        "rhs": str(right),
                    })
    return violations


def quotient_reference(alg, form, ideal):
    """Quotient algebra, induced form and projection on the complement of
    the ideal's pivot columns, from products and form values of unit
    vectors."""
    field = alg.field
    ideal_m, pivots = span_rref(field, [tuple(v) for v in ideal])
    if not is_ideal(alg, ideal_m.data):
        raise NotAnIdeal("subspace does not absorb products")
    comp = [j for j in range(alg.dim) if j not in set(pivots)]

    def project(v):
        rest = _reduce(field, ideal_m, pivots, v)[1]
        return tuple(rest[j] for j in comp)

    reps = [unit_vec(field, alg.dim, j) for j in comp]
    table = [[project(alg.mul(reps[i], reps[j])) for j in range(len(comp))]
             for i in range(len(comp))]
    qalg = Algebra(field, [alg.labels[j] for j in comp],
                   upper_triangle(table))
    for v in ideal_m.data:
        for i in range(alg.dim):
            if form_apply_reference(form, tuple(v),
                                    unit_vec(field, alg.dim, i)) != field.zero:
                raise NotAnIdeal("ideal not contained in the form kernel")
    qgram = Matrix(field, [[form_apply_reference(form, reps[i], reps[j])
                            for j in range(len(comp))]
                           for i in range(len(comp))])
    return qalg, BilinearForm(field, upper_triangle(qgram.data)), project
