"""Dense exact linear algebra over a generic scalar field (Q or Q(t)).

Matrices are immutable-by-convention lists of rows; all algorithms are
exact and never use floating point.  One fraction-free Gauss-Jordan loop
on Python ints serves RREF, kernels, spans and the determinant: the field
clears each row to integers (over Q(t), integer polynomials evaluated at
one point past the bound on every minor), every division in the loop is
exact, and only the results become field elements again.  A subspace is
an RREF basis from span_rref with its pivot columns: coordinates are read
at the pivots, and membership and the remainder modulo the subspace are
read off the basis entries (remainder_map), with no elimination of their
own.  The semidefinite-aware LDLT is the only other elimination loop;
its Schur-complement sums go through the field's sub_dot, which over Q
runs on integer numerators.
A symmetric table is computed at the pairs i <= j (upper_pairs) and
mirrored once into its full rows (symmetric).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import prod

from .errors import DimensionMismatch, NonSquare
from .scalars import QQ, _l1, rat, rational_sign


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

    def at(self, t0):
        """This matrix over Q(t) at t = t0, over Q (field.at)."""
        at = self.field.at
        return Matrix(QQ, [at(row, t0) for row in self.data])

    def transpose(self):
        return Matrix(self.field,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def matmul(self, other):
        """The product: column k is the matvec of column k of other."""
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        cols = [self.matvec(col) for col in zip(*other.data)]
        return Matrix(self.field, [[col[i] for col in cols]
                                   for i in range(self.rows)])

    def matvec(self, v):
        """Product over the nonzero pairs only; most entries here are zero."""
        if self.cols != len(v):
            raise DimensionMismatch("matvec shape mismatch")
        is_zero = self.field.is_zero
        z = self.field.zero
        nz = [(k, x) for k, x in enumerate(v) if not is_zero(x)]
        return tuple(_sum((row[k] * x for k, x in nz if not is_zero(row[k])),
                          z)
                     for row in self.data)


def _sum(terms, zero):
    """The sum of the terms from the first one on; zero if there is none."""
    terms = iter(terms)
    for first in terms:
        return sum(terms, first)
    return zero


def upper_pairs(n):
    """The index pairs (i, j), i <= j < n, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def symmetric(n, entry):
    """The n x n rows of entry(i, j), each computed once for i <= j and
    reused at (j, i)."""
    rows = [[None] * n for _ in range(n)]
    for i, j in upper_pairs(n):
        rows[i][j] = rows[j][i] = entry(i, j)
    return rows


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def _eliminate(m: Matrix):
    """Fraction-free Gauss-Jordan elimination on Python ints, the one loop
    behind rref, kernel_basis, span_rref and determinant.

    Rows in.  The field clears row i to integer polynomials m_ij (integers
    over Q) and a nonzero integer-polynomial scale s_i with
    row_i * s_i = (m_i1, ..., m_in); scaling a row changes neither its
    row space nor the RREF.  Over Q(t), field.at_point evaluates each m_ij
    and s_i once at T = 2^(bitlen(B) + 1), where B is the product of the
    min(rows, cols) largest row norms
    N_i = max(1, ||s_i||_1, sum_j ||m_ij||_1).  Over Q the cleared
    integers are the rows and scales themselves, with no norms and no T,
    and the bound below plays no part.  Every entry the loop produces,
    the last pivot included, is a minor on at most min(rows, cols) rows
    (below).  By the Leibniz expansion, with the l1 norm sub-additive and
    sub-multiplicative, a minor's l1 norm is at most the product of the
    N_i of its rows, so at most B, and every coefficient of a minor lies
    in (-T/2, T/2).  For a square matrix the product of all n scales,
    which determinant unpacks, has l1 norm at most prod ||s_i||_1 <= B
    too; that is why s_i enters N_i.

    The loop.  With p the new pivot and prev the one before it (1 at
    first), every other row becomes (p * row - c * pivot_row) // prev, c
    its entry in the pivot column: Bareiss's step in Gauss-Jordan form.
    After k pivots, entry j of a row without a pivot is the minor on the k
    pivot rows and that row, the k pivot columns and j; entry j of a pivot
    row is p times its RREF entry, by Cramer's rule the minor on the pivot
    rows with column j in place of that row's pivot column.  Each is zero
    or a minor on distinct rows and columns, so on at most min(rows, cols)
    rows, and each is the value at T of an integer polynomial: every
    division is exact, and an entry is zero iff its polynomial is, as a
    nonzero integer polynomial with coefficients below T/2 in size has no
    root at T.  The pivots, row swaps and RREF are therefore those of
    elimination in the field, and each result x/p is read off x and p
    unpacked from their signed base-T digits (field.unpack).

    Returns (rows, pivots, p, swaps, T, scales): the eliminated integer
    rows, whose pivot rows hold p at their pivot column and p times their
    RREF entries elsewhere, and whose rows past the rank are zero; the
    pivot columns; the last pivot p (1 if there is none); the number of
    row swaps; T; and each input row's scale s_i as an int (over Q(t),
    its value at T).
    """
    field, k = m.field, min(m.rows, m.cols)

    def bound(parts):
        norms = sorted((max(1, _l1(s), sum(map(_l1, nums)))
                        for *nums, s in parts), reverse=True)
        return prod(norms[:k])

    rows, T = field.at_point(
        [nums + [s] for nums, s in map(field.clear, m.data)], bound)
    scales = [row.pop() for row in rows]
    nr = m.rows
    pivots = []
    swaps = 0
    prev = 1
    for c in range(m.cols):
        r = len(pivots)
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps += 1
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                a = row[c]
                if a:
                    rows[i] = [(p * x - a * y) // prev
                               for x, y in zip(row, prow)]
                elif p != prev:
                    rows[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
    return rows, tuple(pivots), prev, swaps, T, scales


def _quotient(field, p, T):
    """The map x -> x/p into the field, for entries x of the eliminated
    rows and their last pivot p."""
    z, o = field.zero, field.one
    unpack, join = field.unpack, field.join
    den = unpack(p, T)
    return lambda x: z if not x else o if x == p else join(unpack(x, T), den)


def rref(m: Matrix):
    """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
    rows, pivots, p, _, T, _ = _eliminate(m)
    q = _quotient(m.field, p, T)
    return Matrix(m.field, [[q(x) for x in row] for row in rows]), pivots


def kernel_basis(m: Matrix):
    """RREF-canonical basis of the right null space (tuple of vectors)."""
    field = m.field
    rows, pivots, p, _, T, _ = _eliminate(m)
    q = _quotient(field, p, T)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    z, o = field.zero, field.one
    for fc in free:
        v = [z] * m.cols
        v[fc] = o
        for r, pc in enumerate(pivots):
            v[pc] = q(-rows[r][fc])
        basis.append(tuple(v))
    return basis


def determinant(m: Matrix):
    """Exact determinant: the last pivot of the elimination, negated for
    an odd number of row swaps, over the product of the row scales; zero
    when a column has no pivot."""
    if m.rows != m.cols:
        raise NonSquare("determinant of a non-square matrix")
    field = m.field
    _, pivots, p, swaps, T, scales = _eliminate(m)
    if len(pivots) != m.rows:
        return field.zero
    return field.join(field.unpack(-p if swaps % 2 else p, T),
                      field.unpack(prod(scales), T))


# ---------------------------------------------------------------------------
# LDLT
# ---------------------------------------------------------------------------

class LDLTResult:
    """Outcome of a natural-order, no-pivoting LDLT decomposition of m.

    status is "COMPLETE" or "FAILED_INDEFINITE"; on failure, certificate
    is the (row, col) of a nonzero entry below an exactly-zero pivot,
    which witnesses that the matrix is not positive semidefinite, and D
    holds the pivots of the columns before it.
    """

    COMPLETE = "COMPLETE"
    FAILED_INDEFINITE = "FAILED_INDEFINITE"

    def __init__(self, m, L, D, status, certificate=None):
        self.field = m.field
        self.m = m
        self.L = L
        self.D = D
        self.status = status
        self.certificate = certificate

    @cached_property
    def poles(self):
        """The distinct non-constant denominators of the entries of L and
        D, over Q(t)."""
        dens = {x.den for x in chain(self.D, *self.L.data)}
        return tuple(d for d in dens if d.degree)

    def signs(self, t0=None):
        """The signs (1, 0 or -1) of the pivots D, or None when the LDLT
        did not complete.  Over Q(t), the signs of D(t0), or None too
        where a pole vanishes at t0; TypeError for a float t0 (rat), and
        for no t0 (field.sign).

        Why they decide m.  A complete LDLT gives m = L diag(D) L^T with L
        unit lower triangular, hence invertible, so m is congruent to
        diag(D).  Over Q(t), evaluation at t0 is a ring map on the
        rational functions whose denominator does not vanish at t0; at a
        point that is no pole it is defined on every entry of L and D, so
        on every entry of m, a sum of products of them, and m(t0) =
        L(t0) diag(D(t0)) L(t0)^T with L(t0) unit lower triangular.  By
        Sylvester's law of inertia the matrix then has as many positive,
        zero and negative eigenvalues as there are signs 1, 0 and -1: it
        is positive definite iff every sign is 1, positive semidefinite
        iff none is -1 (pd, psd), and its nullity is the number of zeros.
        """
        if t0 is None:
            if self.status != self.COMPLETE:
                return None
            return tuple(map(self.field.sign, self.D))
        t0 = rat(t0)
        if (self.status != self.COMPLETE
                or any(not p(t0) for p in self.poles)):
            return None
        return tuple(rational_sign(d.evaluate(t0)) for d in self.D)

    def is_psd(self):
        return psd(self.signs())

    def is_pd(self):
        return pd(self.signs())


def pd(signs):
    """Positive definite by the signs of LDLT pivots (LDLTResult.signs):
    every sign is 1.  None, from an LDLT that failed and so found the
    matrix not positive semidefinite, is neither pd nor psd."""
    return signs is not None and all(s > 0 for s in signs)


def psd(signs):
    """Positive semidefinite by the signs, as pd reads them: no sign is -1."""
    return signs is not None and all(s >= 0 for s in signs)


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
                    return LDLTResult(m, L, D,
                                      LDLTResult.FAILED_INDEFINITE, (i, j))
            D.append(z)
            continue
        D.append(dj)
        for i in range(j + 1, n):
            c = col[i - j]
            lrows[i].append(c if is_zero(c) else c / dj)
        active.append(j)
    L = _expand_l(field, lrows, active, n)
    return LDLTResult(m, L, D, LDLTResult.COMPLETE)


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


def induced(g, basis, coords):
    """The matrix of the map g on the space with this basis, in the
    coordinates that coords reads off: column k is coords(g basis_k)."""
    return Matrix(g.field, list(zip(*(coords(g.matvec(b)) for b in basis))))


def span_rref(field, vectors):
    """Matrix whose rows are an RREF basis of the span of the vectors."""
    red, pivots = rref(Matrix(field, list(vectors)))
    return Matrix(field, red.data[:len(pivots)]), pivots


def remainder_map(field, basis: Matrix, pivots, n):
    """(comp, rest) for an RREF basis of a subspace of field^n and its
    pivot columns: comp lists the other columns, and rest(v) is
    v - sum_i v[p_i] basis_i read at comp, zero iff v is in the span.
    Each basis row is 1 at its own pivot and 0 at the others, so the
    v[p_i] are v's coordinates, and entry j of rest(v) is v[j] minus
    their products with the basis entries at column j, summed over the
    nonzero ones only."""
    pivot_set = set(pivots)
    comp = [j for j in range(n) if j not in pivot_set]
    is_zero = field.is_zero
    # column j of the basis, negated, at its nonzero entries
    cols = [[(i, -row[j]) for i, row in enumerate(basis.data)
             if not is_zero(row[j])] for j in comp]

    def rest(v):
        coords = [v[p] for p in pivots]
        nz = [not is_zero(x) for x in coords]
        return tuple(sum((b * coords[i] for i, b in col if nz[i]), v[j])
                     for j, col in zip(comp, cols))
    return comp, rest
