"""Dense exact linear algebra over a generic scalar field (Q or Q(t)).

Matrices are immutable-by-convention lists of rows; all algorithms are
division-exact and never use floating point.  One Gauss-Jordan loop
serves RREF, kernels, spans and the determinant (the product of its
pivots); the semidefinite-aware LDLT is the only other elimination
loop.  The LDLT's Schur-complement sums go through
the field's sub_dot, which over Q runs on integer numerators.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NonSquare


class Matrix:
    """Dense matrix over one scalar field; data is a list of row lists."""

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field, data):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)]
                           for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def transpose(self):
        return Matrix(self.field,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == self.data[j][i]
                   for i in range(self.rows) for j in range(i))

    def matmul(self, other):
        """Product over the nonzero pairs only; most entries here are zero."""
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        is_zero = self.field.is_zero
        z = self.field.zero
        bcols = [[(k, b) for k, b in enumerate(col) if not is_zero(b)]
                 for col in zip(*other.data)]
        out = []
        for arow in self.data:
            anz = [not is_zero(a) for a in arow]
            out.append([sum((arow[k] * b for k, b in bcol if anz[k]), z)
                        for bcol in bcols])
        return Matrix(self.field, out)

    def matvec(self, v):
        """Product over the nonzero pairs only; most entries here are zero."""
        if self.cols != len(v):
            raise DimensionMismatch("matvec shape mismatch")
        is_zero = self.field.is_zero
        z = self.field.zero
        nz = [(k, x) for k, x in enumerate(v) if not is_zero(x)]
        return tuple(sum((row[k] * x for k, x in nz if not is_zero(row[k])), z)
                     for row in self.data)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def rref(m: Matrix):
    """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
    data, pivots, _, _ = _eliminate(m)
    return Matrix(m.field, data), pivots


def _eliminate(m: Matrix):
    """Gauss-Jordan elimination, the one loop behind rref and determinant.

    Returns (rows in RREF, pivot columns, the value of each pivot before
    its row was normalised, number of row swaps).
    """
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
                _sub_multiple(data[i], data[i][c], data[r], is_zero)
        pivots.append(c)
        values.append(pv)
        r += 1
        if r == nr:
            break
    return data, tuple(pivots), values, swaps


def _sub_multiple(r, c, row, is_zero):
    """r -= c * row in place, over the nonzero entries of row only."""
    for k, y in enumerate(row):
        if not is_zero(y):
            r[k] = r[k] - c * y


def kernel_basis(m: Matrix):
    """RREF-canonical basis of the right null space (tuple of vectors)."""
    field = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    z, o = field.zero, field.one
    for fc in free:
        v = [z] * m.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def determinant(m: Matrix):
    """Exact determinant: the product of the elimination's pivots, negated
    for an odd number of row swaps, or zero when a column has no pivot."""
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


# ---------------------------------------------------------------------------
# LDLT
# ---------------------------------------------------------------------------

class LDLTResult:
    """Outcome of a natural-order, no-pivoting LDLT decomposition.

    status is "COMPLETE" or "FAILED_INDEFINITE"; on failure, certificate
    is the (row, col) of a nonzero entry below an exactly-zero pivot,
    which witnesses that the matrix is not positive semidefinite, and D
    holds the pivots of the columns before it.
    """

    COMPLETE = "COMPLETE"
    FAILED_INDEFINITE = "FAILED_INDEFINITE"

    def __init__(self, field, L, D, status, certificate=None):
        self.field = field
        self.L = L
        self.D = D
        self.status = status
        self.certificate = certificate

    def is_psd(self):
        if self.status != self.COMPLETE:
            return False
        return all(self.field.sign(d) >= 0 for d in self.D)

    def is_pd(self):
        return (self.status == self.COMPLETE
                and all(self.field.sign(d) > 0 for d in self.D))


def ldlt(m: Matrix) -> LDLTResult:
    """Semidefinite-aware LDLT in natural order with no pivoting.

    A zero pivot is legal only when the rest of its column (in the Schur
    complement) is exactly zero; the column is then skipped with D entry 0.
    Otherwise the matrix cannot be PSD, over Q and Q(t) alike: the result
    has status FAILED_INDEFINITE and the pivots computed so far.

    Each Schur-complement entry m[i][j] - sum_k L[i,k] L[j,k] D[k] is one
    field.sub_dot, which over Q sums integer numerators and normalises once.
    """
    if m.rows != m.cols:
        raise NonSquare("ldlt of a non-square matrix")
    field = m.field
    n = m.rows
    z = field.zero
    is_zero = field.is_zero
    sub_dot = field.sub_dot
    # L stored compactly: lrows[i][k] is L[i, active[k]]
    lrows = [[] for _ in range(n)]
    active = []
    D = []
    for j in range(n):
        lj = lrows[j]
        dl = [a if is_zero(a) else a * D[k] for a, k in zip(lj, active)]
        # column j of the Schur complement, from the diagonal down
        col = [sub_dot(m.data[i][j], lrows[i], dl) for i in range(j, n)]
        dj = col[0]
        if is_zero(dj):
            for i in range(j + 1, n):
                if not is_zero(col[i - j]):
                    L = _expand_l(field, lrows, active, n)
                    return LDLTResult(field, L, D,
                                      LDLTResult.FAILED_INDEFINITE, (i, j))
            D.append(z)
            continue
        D.append(dj)
        for i in range(j + 1, n):
            c = col[i - j]
            lrows[i].append(c if is_zero(c) else c / dj)
        active.append(j)
    L = _expand_l(field, lrows, active, n)
    return LDLTResult(field, L, D, LDLTResult.COMPLETE)


def _expand_l(field, lrows, active, n):
    z, one = field.zero, field.one
    L = [[z] * n for _ in range(n)]
    for i in range(n):
        L[i][i] = one
        for k, col in enumerate(active):
            if col < i and k < len(lrows[i]):
                L[i][col] = lrows[i][k]
    return Matrix(field, L)


def reconstruct_ldlt(result: LDLTResult) -> Matrix:
    """L diag(D) L^T, for checking exact reconstruction."""
    field = result.field
    n = result.L.rows
    Ld = Matrix(field, [[result.L.data[i][j] * result.D[j] for j in range(n)]
                        for i in range(n)])
    return Ld.matmul(result.L.transpose())


# ---------------------------------------------------------------------------
# Vector helpers (coordinate tuples over a field)
# ---------------------------------------------------------------------------

def unit_vec(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_is_zero(field, u):
    return all(field.is_zero(a) for a in u)


def span_rref(field, vectors):
    """Matrix whose rows are an RREF basis of the span of the vectors."""
    if not vectors:
        return Matrix(field, []), ()
    red, pivots = rref(Matrix(field, list(vectors)))
    basis_rows = red.data[:len(pivots)]
    return Matrix(field, basis_rows), pivots


def in_span(field, rref_basis: Matrix, pivots, v):
    """Exact membership of v in the row span of an RREF basis."""
    return vec_is_zero(field, _reduce(field, rref_basis, pivots, v)[1])


def _reduce(field, basis: Matrix, pivots, v):
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
