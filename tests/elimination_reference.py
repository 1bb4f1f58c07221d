"""Test-only reference for elimination, as axia made it before the integer
kernel.

axia.linalg eliminates on Python ints: each row cleared to integers (over
Q(t), integer polynomials evaluated at one point past the minor bound) and
reduced by fraction-free Gauss-Jordan steps.  Here the same Gauss-Jordan
loop runs in the matrix's own field, one field division per pivot-row
entry and one field product per update, so tests/test_linalg.py can
compare rref, kernel_basis, span_rref and determinant value for value.
"""

from axia.errors import NonSquare
from axia.linalg import Matrix


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
