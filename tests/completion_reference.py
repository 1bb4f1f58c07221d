"""Equivariant completion as axia made it before the sweep only derived,
kept as a differential oracle.

axia.completion.complete_table drops each (generator, known pair)
combination whose expansion has no unknown pair, and afterwards decides
every identity whose expansion is known at once, on integers at one point.
complete_table here is the sweep as it was, copied verbatim: it evaluates
every such combination in field arithmetic while it sweeps, one matvec and
one subtraction per known pair in its expansion, and raises at the first
one that disagrees.  tests/test_completion.py compares the two entry by
entry and outcome by outcome.
"""

from axia.errors import CompletionInconsistent, CompletionInsufficient
from axia.linalg import upper_pairs


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


def complete_table(field, dim, known, generators, describe=None):
    """Complete a partial product table under symmetry generators.

    known: {(i, j) with i <= j: value}, where a value is the coordinate
    tuple of the product followed by any extra coordinates, such as the
    form value, which the symmetries leave fixed.  generators: list of
    Matrix operators (columns = images of basis vectors).  Returns the
    completed dict; raises CompletionInconsistent if two derivations
    disagree and CompletionInsufficient if the orbit closure leaves pairs
    undefined.

    A fixpoint sweep: each pass scans the open (generator, known pair)
    combinations in a fixed order and uses every one with at most one
    unknown pair in its expansion, to derive that pair or to check the
    known ones.  A derived pair opens its own combinations.  The sweep
    stops after a pass that uses no combination; every combination of a
    complete table has then been checked.
    """
    known = {_norm(p): tuple(v) for p, v in known.items()}
    describe = describe or (lambda p: str(p))
    is_zero = field.is_zero
    cols = [[tuple(g.data[i][j] for i in range(dim)) for j in range(dim)]
            for g in generators]
    combos = [(gi, pair) for pair in known for gi in range(len(generators))]
    expansions = {}
    while True:
        left = []
        for combo in combos:
            gi, (p, q) = combo
            coeffs = expansions.get(combo)
            if coeffs is None:
                coeffs = expansions[combo] = _pair_coefficients(
                    field, cols[gi][p], cols[gi][q])
            unknown = [pair for pair in coeffs if pair not in known]
            if len(unknown) > 1:
                left.append(combo)
                continue
            del expansions[combo]
            value = known[(p, q)]
            acc = list(generators[gi].matvec(value[:dim])) + list(value[dim:])
            for pair, c in coeffs.items():
                if pair in known:
                    for k, y in enumerate(known[pair]):
                        if not is_zero(y):
                            acc[k] = acc[k] - c * y
            if not unknown:
                if any(not is_zero(a) for a in acc):
                    raise CompletionInconsistent(
                        f"image of {describe((p, q))} under a symmetry "
                        f"contradicts known entries")
                continue
            pair = unknown[0]
            c = coeffs[pair]
            known[pair] = tuple(a / c for a in acc)
            left.extend((gj, pair) for gj in range(len(generators)))
        if left == combos:  # the pass used no combination
            break
        combos = left
    missing = set(upper_pairs(dim)) - set(known)
    if missing:
        raise CompletionInsufficient([describe(p) for p in missing])
    return known


def _norm(pair):
    i, j = pair
    return (i, j) if i <= j else (j, i)
