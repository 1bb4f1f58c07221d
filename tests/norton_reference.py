"""Test-only reference: the Norton form on all n^2 ordered basis pairs.

axia decides Norton's inequality on the block over the exterior square
(axia.certify.norton_block).  tests/test_certify.py expands that block to
the whole n^2 x n^2 matrix here and checks it against the defining formula
and the block's LDLT against the LDLT of the whole matrix.
"""

from axia.certify import norton_block
from axia.linalg import Matrix


def norton_matrix(alg, form) -> Matrix:
    """The antisymmetrized product-form matrix on all n^2 ordered basis
    pairs, expanded from norton_block: b[(j,i), .] = -b[(i,j), .] and the
    rows (i,i) are zero."""
    field = alg.field
    n = alg.dim
    z = field.zero
    block = norton_block(alg, form).data
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
