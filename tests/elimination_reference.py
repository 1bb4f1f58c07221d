"""Test-only reference for elimination and spans, as axia made them before
the integer kernel.

axia.linalg eliminates on Python ints: each row cleared to integers (over
Q(t), integer polynomials evaluated at one point past the minor bound) and
reduced by fraction-free Gauss-Jordan steps.  Here the same Gauss-Jordan
loop runs in the matrix's own field, one field division per pivot-row
entry and one field product per update, so tests/test_linalg.py can
compare rref, kernel_basis, span_rref and determinant value for value.

axia.algebra answers every question about a subspace from its RREF basis:
closure and the ideal test by the rank of one stacked matrix, coordinates
and the remainder by reading the pivots (axia.linalg.remainder_map).
Here each vector is reduced against the basis rows one at a time in field
arithmetic (in_span, _reduce), and subalgebra_closure, subalgebra_algebra,
is_ideal and quotient grow and test spans vector by vector on it, so
tests/test_spans.py can compare the two value for value.
"""

from axia.algebra import Algebra, BilinearForm
from axia.errors import NonSquare, NotAnIdeal
from axia.linalg import Matrix, unit_vec, upper_pairs, vec_is_zero


def upper_triangle(table):
    """The entries of a full n x n table at the pairs i <= j, as Algebra
    and BilinearForm take them; ValueError if the table is not
    symmetric."""
    n = len(table)
    if any(table[i][j] != table[j][i] for i, j in upper_pairs(n)):
        raise ValueError("table not symmetric")
    return {(i, j): table[i][j] for i, j in upper_pairs(n)}


def _eliminate(m):
    """(rows in RREF, pivot columns, the value of each pivot before its
    row was normalised, number of row swaps)."""
    field = m.field
    is_zero = field.is_zero
    data = [list(row) for row in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    values = []
    swaps = 0
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not is_zero(data[i][c])), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        swaps += pr != r
        pv = data[r][c]
        if pv != field.one:
            data[r] = [x if is_zero(x) else x / pv for x in data[r]]
        for i in range(nr):
            if i != r and not is_zero(data[i][c]):
                ci = data[i][c]
                data[i] = [x if is_zero(y) else x - ci * y
                           for x, y in zip(data[i], data[r])]
        pivots.append(c)
        values.append(pv)
        r += 1
        if r == nr:
            break
    return data, tuple(pivots), values, swaps


def rref(m):
    """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
    data, pivots, _, _ = _eliminate(m)
    return Matrix(m.field, data), pivots


def kernel_basis(m):
    """RREF-canonical basis of the right null space (tuple of vectors)."""
    field = m.field
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * m.cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def span_rref(field, vectors):
    """Matrix whose rows are an RREF basis of the span of the vectors."""
    if not vectors:
        return Matrix(field, []), ()
    red, pivots = rref(Matrix(field, list(vectors)))
    return Matrix(field, red.data[:len(pivots)]), pivots


def determinant(m):
    """The product of the elimination's pivots, negated for an odd number
    of row swaps, or zero when a column has no pivot."""
    if m.rows != m.cols:
        raise NonSquare("determinant of a non-square matrix")
    field = m.field
    _, pivots, values, swaps = _eliminate(m)
    if len(pivots) != m.rows:
        return field.zero
    det = field.one
    for pv in values:
        det = det * pv
    return -det if swaps % 2 else det


def in_span(field, rref_basis, pivots, v):
    """Exact membership of v in the row span of an RREF basis."""
    return vec_is_zero(field, _reduce(field, rref_basis, pivots, v)[1])


def _sub_multiple(r, c, row, is_zero):
    """r -= c * row in place, over the nonzero entries of row only."""
    for k, y in enumerate(row):
        if not is_zero(y):
            r[k] = r[k] - c * y


def _reduce(field, basis, pivots, v):
    """Reduce v against the rows of an RREF basis with the given pivot
    columns.  Returns (coefficients, remainder): the coefficient taken of
    each row, and what is left of v, which is zero iff v is in the span."""
    is_zero = field.is_zero
    r = list(v)
    coeffs = []
    for row, pc in zip(basis.data, pivots):
        c = r[pc]
        coeffs.append(c)
        if not is_zero(c):
            _sub_multiple(r, c, row, is_zero)
    return coeffs, r


def subalgebra_closure(alg, generators):
    """RREF basis of the smallest product-closed subspace containing the
    generators; iterates span growth to a fixpoint."""
    field = alg.field
    basis_m, pivots = span_rref(field, [tuple(g) for g in generators])
    while True:
        current = [tuple(r) for r in basis_m.data]
        new_vecs = list(current)
        grew = False
        for i, u in enumerate(current):
            for v in current[i:]:
                p = alg.mul(u, v)
                if not in_span(field, basis_m, pivots, p):
                    new_vecs.append(p)
                    grew = True
        if not grew:
            return current
        basis_m, pivots = span_rref(field, new_vecs)


def subalgebra_algebra(alg, basis_vectors):
    """Materialize a product-closed subspace as an Algebra in its own
    coordinates; returns (Algebra, coords) where coords maps an ambient
    vector inside the subspace to subalgebra coordinates."""
    field = alg.field
    m, pivots = span_rref(field, [tuple(v) for v in basis_vectors])
    k = len(pivots)

    def coords(v):
        out, rest = _reduce(field, m, pivots, v)
        if not vec_is_zero(field, rest):
            raise ValueError("vector outside the subalgebra")
        return tuple(out)

    table = [[coords(alg.mul(tuple(m.data[i]), tuple(m.data[j])))
              for j in range(k)] for i in range(k)]
    return (Algebra(field, [f"s_{i}" for i in range(k)],
                    upper_triangle(table)), coords)


def is_ideal(alg, subspace):
    """True iff the span of the subspace absorbs products with the basis."""
    field = alg.field
    basis_m, pivots = span_rref(field, [tuple(v) for v in subspace])
    for i in range(alg.dim):
        ei = unit_vec(field, alg.dim, i)
        for v in basis_m.data:
            if not in_span(field, basis_m, pivots, alg.mul(ei, tuple(v))):
                return False
    return True


def quotient(alg, form, ideal):
    """Quotient algebra and induced form on a complement basis.

    The ideal must absorb products (NotAnIdeal otherwise).  The induced
    form is only well defined when the ideal lies in the form's kernel;
    that containment is checked here as well.
    """
    field = alg.field
    ideal_m, pivots = span_rref(field, [tuple(v) for v in ideal])
    if not is_ideal(alg, ideal_m.data):
        raise NotAnIdeal("subspace does not absorb products")
    comp = [j for j in range(alg.dim) if j not in pivots]

    def project(v):
        """Reduce modulo the ideal, then read off complement coordinates."""
        rest = _reduce(field, ideal_m, pivots, v)[1]
        return tuple(rest[j] for j in comp)

    qalg = Algebra(field, [alg.labels[j] for j in comp],
                   upper_triangle([[project(alg.mul_table[i][j]) for j in comp]
                                   for i in comp]))
    # induced form well-defined <=> ideal is in the kernel of the form
    if not all(vec_is_zero(field, form.gram.matvec(v)) for v in ideal_m.data):
        raise NotAnIdeal("ideal not contained in the form kernel; "
                         "induced form undefined")
    qgram = Matrix(field, [[form.gram.data[i][j] for j in comp] for i in comp])
    return qalg, BilinearForm(field, upper_triangle(qgram.data)), project
