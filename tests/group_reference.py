"""Test-only reference: the closed group generated by symmetry matrices.

axia completes tables under the symmetry generators alone and never
enumerates the group they generate.  The tests close the generators here
to check group orders, equivariance under every group element and that
completion under the generators matches completion under the whole group.
"""

from axia.linalg import Matrix


def mulclose(field, generators, limit=10000):
    """Closure of a generator list of square matrices under multiplication."""
    n = generators[0].rows
    ident = Matrix.identity(field, n)

    def key(m):
        return tuple(tuple(row) for row in m.data)

    elems = {key(ident): ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in generators:
                p = g.matmul(m)
                k = key(p)
                if k not in elems:
                    elems[k] = p
                    new.append(p)
                    if len(elems) > limit:
                        raise ValueError("group closure exceeded limit")
        frontier = new
    return list(elems.values())
