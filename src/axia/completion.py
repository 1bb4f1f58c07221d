"""Equivariant completion of partial multiplication tables and forms.

An algebra is assembled from seeds: the product and the form value of
some basis pairs.  For each symmetry generator g the identity
(u.v)^g = u^g . v^g, expanded by bilinearity, together with the
invariance <u^g, v^g> = <u, v>, lets unknown entries be solved one at a
time and forces consistency between every pair of derivations.  A table
equivariant under every generator is equivariant under the group they
generate, so the group itself is never enumerated.  Each generator is a
matrix built by label_map from the images of the basis labels.
"""

from __future__ import annotations

from .algebra import Algebra, BilinearForm
from .errors import CompletionInconsistent, CompletionInsufficient
from .linalg import Matrix, upper_pairs


def label_map(field, labels, image):
    """The matrix of the linear map sending the basis vector of each label
    to image(label), a {label: scalar} dict; its columns are the images."""
    pos = {lab: i for i, lab in enumerate(labels)}
    m = [[field.zero] * len(labels) for _ in labels]
    for j, lab in enumerate(labels):
        for out, c in image(lab).items():
            m[pos[out]][j] = field.of(c)
    return Matrix(field, m)


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


def complete_algebra(field, labels, seeds, generators):
    """Assemble an algebra and its form from seeds under symmetry
    generators; returns (Algebra, BilinearForm).

    A seed is ((label, label), {label: scalar}, form value): the product
    of two basis vectors and their form value.  Two seeds that give one
    pair different values raise CompletionInconsistent.
    """
    dim = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    known = {}
    for (lu, lv), product, form_value in seeds:
        value = [field.zero] * dim + [field.of(form_value)]
        for lab, x in product.items():
            value[pos[lab]] = field.of(x)
        value = tuple(value)
        if known.setdefault(_norm((pos[lu], pos[lv])), value) != value:
            raise CompletionInconsistent(f"seeds disagree at ({lu}, {lv})")

    def describe(p):
        return f"({labels[p[0]]}, {labels[p[1]]})"

    done = complete_table(field, dim, known, generators, describe)
    return (Algebra(field, labels, {p: v[:dim] for p, v in done.items()}),
            BilinearForm(field, {p: v[dim] for p, v in done.items()}))


def _norm(pair):
    i, j = pair
    return (i, j) if i <= j else (j, i)
