"""Test-only reference for the Miyamoto involution through an inverted
eigenbasis, as axia computed it before the eigenspace projectors.

axia.algebra.miyamoto builds I - 2 sum_{lam in neg} P_lam from the
adjoint.  Here the same map is E S E^-1, with E the matrix whose columns
are the eigenvectors of the decomposition and S = diag(+-1) negating the
columns of the negated eigenspaces, so tests/test_algebra.py can compare
the two.  inverse is the Gauss-Jordan inverse of an augmented matrix.
"""

from axia.linalg import Matrix, rref


def inverse(m):
    """m^-1 from the RREF of [m | I]; ZeroDivisionError when singular."""
    n = m.rows
    field = m.field
    aug = Matrix(field, [list(row) + [field.one if i == j else field.zero
                                      for j in range(n)]
                         for i, row in enumerate(m.data)])
    red, pivots = rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ZeroDivisionError("matrix is singular")
    return Matrix(field, [row[n:] for row in red.data])


def miyamoto_reference(alg, dec, negative_eigenvalues):
    """E S E^-1 for the eigenbasis E of dec and S negating the eigenvectors
    of the given eigenvalues."""
    field = alg.field
    neg = {field.of(x) for x in negative_eigenvalues}
    cols = [v for lam in dec.eigenvalues for v in dec.spaces[lam]]
    flip = [lam in neg for lam in dec.eigenvalues for _ in dec.spaces[lam]]
    n = alg.dim
    E = Matrix(field, [[cols[j][i] for j in range(n)] for i in range(n)])
    ES = Matrix(field, [[-x if f else x for x, f in zip(row, flip)]
                        for row in E.data])
    return ES.matmul(inverse(E))
