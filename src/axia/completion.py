"""Equivariant completion of partial multiplication tables and forms.

An algebra is assembled from seeds: the product and the form value of
some basis pairs.  For each symmetry generator g the identity
(u.v)^g = u^g . v^g, expanded by bilinearity, together with the
invariance <u^g, v^g> = <u, v>, lets unknown entries be solved one at a
time.  Once nothing more can be derived, every such identity whose
entries are all known is decided at once, on integers at one point
(algebra._symmetry_failure), so a seed that contradicts a derivation or
another seed is caught.  A table equivariant under every generator is
equivariant under the group they generate, so the group itself is never
enumerated.  Each generator is a matrix built by label_map from the
images of the basis labels.
"""

from __future__ import annotations

from .algebra import (Algebra, BilinearForm, _symmetry_bound,
                      _symmetry_failure)
from .errors import CompletionInconsistent, CompletionInsufficient
from .linalg import Matrix, upper_pairs
from .scalars import _l1


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
    """Expand (sum u_i b_i)(sum v_j b_j) into unordered-pair coefficients;
    u and v list their nonzero (i, u_i) and (j, v_j)."""
    coeffs = {}
    for i, ui in u:
        for j, vj in v:
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
    completed dict; raises CompletionInconsistent if a known entry breaks
    a symmetry, and otherwise CompletionInsufficient if the orbit closure
    leaves pairs undefined.

    A fixpoint sweep derives: each pass scans the open (generator, known
    pair) combinations in a fixed order and uses every one with exactly
    one unknown pair in its expansion to derive that pair; a combination
    with none is dropped unevaluated, and a derived pair opens its own
    combinations.  The sweep stops after a pass that derives nothing and
    drops nothing.  Then every combination whose expansion is known is
    decided at once (_check_known), those that derived an entry, which
    hold by construction, among them: on a complete table, every
    combination.
    """
    known = {_norm(p): tuple(v) for p, v in known.items()}
    describe = describe or (lambda p: str(p))
    is_zero = field.is_zero
    cols = [[[(i, x) for i, x in enumerate(col) if not is_zero(x)]
             for col in zip(*g.data)] for g in generators]
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
            if not unknown:
                continue
            value = known[(p, q)]
            acc = list(generators[gi].matvec(value[:dim])) + list(value[dim:])
            for pair, c in coeffs.items():
                if pair in known:
                    for k, y in enumerate(known[pair]):
                        if not is_zero(y):
                            acc[k] = acc[k] - c * y
            pair = unknown[0]
            c = coeffs[pair]
            known[pair] = tuple(a / c for a in acc)
            left.extend((gj, pair) for gj in range(len(generators)))
        if left == combos:  # the pass used no combination
            break
        combos = left
    _check_known(field, dim, known, generators, set(combos), describe)
    missing = set(upper_pairs(dim)) - set(known)
    if missing:
        raise CompletionInsufficient([describe(p) for p in missing])
    return known


def _check_known(field, dim, known, generators, waiting, describe):
    """Raise CompletionInconsistent, naming the first pair that fails,
    unless every generator g maps the value of every known pair p to the
    sum of the known values its expansion names (g acting on product
    coordinates and fixing the extra ones), except at the waiting
    (generator index, pair) combinations, whose expansions are not known.

    Decided on integers at one point by algebra._symmetry_failure: the
    values are cleared to integer numerators over one denominator, the
    product coordinates forming the table and each extra coordinate a
    form, and each generator g = N/d is cleared on its own.  Over Q(t)
    they are all evaluated at one T past algebra._symmetry_bound of each
    generator, with the largest l1 norm of a value numerator as both w
    and g; over Q they are ints already.
    """
    pairs = [p for p in upper_pairs(dim) if p in known]
    entries = [(p, k, x) for p in pairs for k, x in enumerate(known[p])
               if not field.is_zero(x)]
    nums = field.clear([x for _, _, x in entries])[0]
    gens = [field.clear([x for row in g.data for x in row])
            for g in generators]

    def bound(coeffs):
        vals, *gs = coeffs
        w = max(map(_l1, vals), default=0)
        return max((_symmetry_bound(w, w, N, d, dim) for *N, d in gs),
                   default=0)
    (vals, *gs), _ = field.at_point([nums] + [n + [d] for n, d in gens],
                                    bound)
    table = [[[] for _ in range(dim)] for _ in range(dim)]
    forms = {}  # an extra coordinate that is 0 everywhere holds trivially
    for ((i, j), k, _), v in zip(entries, vals):
        if k < dim:
            table[i][j].append((k, v))
            if i != j:
                table[j][i].append((k, v))
        else:
            form = forms.setdefault(k, [[0] * dim for _ in range(dim)])
            form[i][j] = form[j][i] = v
    for gi, (*N, d) in enumerate(gs):
        failure = _symmetry_failure(
            table, list(forms.values()), N, d,
            [p for p in pairs if (gi, p) not in waiting])
        if failure is not None:
            raise CompletionInconsistent(
                f"image of {describe(failure)} under a symmetry "
                f"contradicts known entries")


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
