"""Equivariant completion of partial multiplication tables and forms.

Given the products (or form values) of some basis pairs and a finite group
of linear symmetries g, the identity (u.v)^g = u^g . v^g — expanded by
bilinearity — lets unknown entries be solved one at a time and forces
consistency between every pair of derivations.
"""

from __future__ import annotations

from collections import deque

from .errors import CompletionInconsistent, CompletionInsufficient
from .linalg import Matrix


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


def _pair_coefficients(field, u, v):
    """Expand (sum u_i b_i)(sum v_j b_j) into unordered-pair coefficients."""
    coeffs = {}
    nz_u = [(i, ui) for i, ui in enumerate(u) if not field.is_zero(ui)]
    nz_v = [(j, vj) for j, vj in enumerate(v) if not field.is_zero(vj)]
    for i, ui in nz_u:
        for j, vj in nz_v:
            pair = (i, j) if i <= j else (j, i)
            c = ui * vj
            coeffs[pair] = coeffs.get(pair, field.zero) + c
    return {p: c for p, c in coeffs.items() if not field.is_zero(c)}


def complete_table(field, dim, known, group, describe=None, image=None,
                   clash="image of pair {} under the group contradicts "
                         "known entries"):
    """Complete a partial product table under a symmetry group.

    known: {(i, j) with i <= j: coordinate tuple}.  group: list of Matrix
    operators (columns = images of basis vectors).  Returns the completed
    dict; raises CompletionInconsistent if two derivations disagree and
    CompletionInsufficient if the orbit closure leaves pairs undefined.

    Each (group element, known pair) combination is used once, as soon as
    at most one pair of its expansion is unknown: it then either derives
    that pair or checks the known ones.  A combination with more unknowns
    waits on all of them and is queued again when all but one are derived.
    image(g, value) is the right-hand side of the identity for g; it
    defaults to g.matvec(value), i.e. (u.v)^g = u^g . v^g.  clash formats
    the message of an inconsistency from the described pair.
    """
    known = {_norm(p): tuple(v) for p, v in known.items()}
    describe = describe or (lambda p: str(p))
    image = image or (lambda g, value: g.matvec(value))
    is_zero = field.is_zero
    cols = [[tuple(g.data[i][j] for i in range(dim)) for j in range(dim)]
            for g in group]
    queue = deque((gi, pair) for pair in known for gi in range(len(group)))
    waiting = {}  # unknown pair -> combinations waiting on it
    pending = {}  # waiting combination -> number of its unknown pairs
    done = set()
    while queue:
        combo = queue.popleft()
        if combo in done:
            continue
        gi, (p, q) = combo
        coeffs = _pair_coefficients(field, cols[gi][p], cols[gi][q])
        unknown = [pair for pair in coeffs if pair not in known]
        if len(unknown) > 1:
            pending[combo] = len(unknown)
            for pair in unknown:
                waiting.setdefault(pair, []).append(combo)
            continue
        done.add(combo)
        acc = list(image(group[gi], known[(p, q)]))
        for pair, c in coeffs.items():
            if pair in known:
                for k, w in enumerate(known[pair]):
                    if not is_zero(w):
                        acc[k] = acc[k] - c * w
        if not unknown:
            if any(not is_zero(a) for a in acc):
                raise CompletionInconsistent(clash.format(describe((p, q))))
            continue
        pair = unknown[0]
        c = coeffs[pair]
        known[pair] = tuple(a / c for a in acc)
        queue.extend((gj, pair) for gj in range(len(group)))
        for other in waiting.pop(pair, ()):
            pending[other] -= 1
            if pending[other] == 1:
                queue.append(other)
    missing = {(i, j) for i in range(dim) for j in range(i, dim)} - set(known)
    if missing:
        raise CompletionInsufficient([describe(p) for p in missing])
    return known


def complete_form(field, dim, known, group, describe=None):
    """The scalar case of complete_table for a symmetric bilinear form,
    using invariance <u^g, v^g> = <u, v>."""
    table = complete_table(field, dim, {p: (v,) for p, v in known.items()},
                           group, describe, image=lambda g, value: value,
                           clash="form value at {} contradicts group "
                                 "invariance")
    return {p: v[0] for p, v in table.items()}


def _norm(pair):
    i, j = pair
    return (i, j) if i <= j else (j, i)


def table_from_pairs(field, dim, pairs):
    """Symmetric dim x dim nested list from an upper-triangle pair dict."""
    table = [[None] * dim for _ in range(dim)]
    for (i, j), v in pairs.items():
        table[i][j] = tuple(v)
        table[j][i] = tuple(v)
    return table


def gram_from_pairs(field, dim, pairs):
    g = [[field.zero] * dim for _ in range(dim)]
    for (i, j), v in pairs.items():
        g[i][j] = v
        g[j][i] = v
    return Matrix(field, g)
