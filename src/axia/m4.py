"""Construction of the two 4A/4B axial algebras: the 7-dimensional M_4B
over Q and the 12-dimensional one-parameter family M_4A over Q(t).

M_4A is assembled from seeds: the dihedral-4A products inside each pair of
commuting axis pairs, the representative products of the basis vectors
w_i = a_i . v_(j,k), the linear dependencies
(a_i - a_-i) . v_(j,k) = t (a_i - a_-i), and equivariant completion under
the symmetry group generated by the three Miyamoto maps tau(a_i), the
triality map sigma and an index transposition pi.  The Gram matrix of the
Frobenius form is given in closed form and certified downstream
(Frobenius property, symmetry invariance).
"""

from __future__ import annotations

from .algebra import Algebra, BilinearForm, ConstructedAlgebra
from .catalog import dihedral
from .completion import (complete_table, mulclose, table_from_pairs)
from .linalg import Matrix
from .scalars import QQ, QT, rat

M4B_LABELS = ("a_1", "a_-1", "a_2", "a_-2", "a_3", "a_-3", "a_rho")
M4A_LABELS = ("a_1", "a_-1", "a_2", "a_-2", "a_3", "a_-3",
              "v_12", "v_13", "v_23", "w_1", "w_2", "w_3")

# signed axis index of each axis label
_M4_AXES = (1, -1, 2, -2, 3, -3)


# ---------------------------------------------------------------------------
# M_4B
# ---------------------------------------------------------------------------

def build_m4b() -> ConstructedAlgebra:
    """The 7-dimensional algebra on six axes a_{+-1}, a_{+-2}, a_{+-3}
    sharing one extra vector a_rho = a_i + a_-i - 8 a_i . a_-i.

    Pairs with different absolute index generate dihedral 4B; pairs
    {a_i, a_-i} generate 2A, all with the same a_rho.
    """
    field = QQ
    labels = list(M4B_LABELS)
    pos = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)

    def vec(combo):
        v = [field.zero] * dim
        for lab, c in combo.items():
            v[pos[lab]] = rat(c)
        return tuple(v)

    def alab(s):
        return f"a_{s}"

    table = {}

    def put(lu, lv, combo):
        i, j = pos[lu], pos[lv]
        key = (i, j) if i <= j else (j, i)
        val = vec(combo)
        if key in table and table[key] != val:
            raise ValueError(f"inconsistent product at ({lu}, {lv})")
        table[key] = val

    for lab in labels:
        put(lab, lab, {lab: "1"} if lab != "a_rho" else {"a_rho": "1"})
    for i in _M4_AXES:
        # 2A on {a_i, a_-i, a_rho}
        put(alab(i), alab(-i), {alab(i): "1/8", alab(-i): "1/8",
                                "a_rho": "-1/8"})
        put(alab(i), "a_rho", {alab(i): "1/8", "a_rho": "1/8",
                               alab(-i): "-1/8"})
        # 4B cross products
        for j in _M4_AXES:
            if abs(i) < abs(j):
                put(alab(i), alab(j),
                    {alab(i): "1/64", alab(j): "1/64", alab(-i): "-1/64",
                     alab(-j): "-1/64", "a_rho": "1/64"})

    gram = [[field.zero] * dim for _ in range(dim)]

    def gput(lu, lv, c):
        gram[pos[lu]][pos[lv]] = rat(c)
        gram[pos[lv]][pos[lu]] = rat(c)

    for lab in labels:
        gput(lab, lab, "1")  # a_rho is itself a norm-1 axis
    for i in _M4_AXES:
        gput(alab(i), alab(-i), "1/8")
        gput(alab(i), "a_rho", "1/8")
        for j in _M4_AXES:
            if abs(i) < abs(j):
                gput(alab(i), alab(j), "1/64")

    alg = Algebra(field, labels, table_from_pairs(field, dim, table))
    form = BilinearForm(field, Matrix(field, gram))
    return ConstructedAlgebra(alg, form, _M4_AXES)


# ---------------------------------------------------------------------------
# M_4A symmetry operators
# ---------------------------------------------------------------------------

def _parse_label(lab):
    kind, rest = lab.split("_")
    if kind == "a":
        return ("a", int(rest))
    if kind == "v":
        return ("v", frozenset(int(c) for c in rest))
    return ("w", int(rest))


def _vlab(pair):
    i, j = sorted(pair)
    return f"v_{i}{j}"


def m4a_symmetries():
    """The generating symmetry operators of M_4A as matrices over Q(t).

    tau_i fixes a_{+-i}, w_i and the three v's, swaps a_j <-> a_-j for
    j != i, and maps w_j -> w_j - t (a_j - a_-j) (forced by the linear
    dependencies); sigma is the 3-cycle (1 2 3) on indices; pi the
    transposition (1 2).
    """
    field = QT
    t = field.t
    pos = {lab: i for i, lab in enumerate(M4A_LABELS)}
    dim = len(M4A_LABELS)

    def op(image):
        """Matrix with columns = images of basis vectors; image maps a
        label to {label: scalar}."""
        m = [[field.zero] * dim for _ in range(dim)]
        for lab in M4A_LABELS:
            for out, c in image(lab).items():
                m[pos[out]][pos[lab]] = field.of(c)
        return Matrix(field, m)

    def tau(i):
        def image(lab):
            kind, val = _parse_label(lab)
            if kind == "a":
                if abs(val) == i:
                    return {lab: 1}
                return {f"a_{-val}": 1}
            if kind == "v":
                return {lab: 1}
            j = val
            if j == i:
                return {lab: 1}
            return {lab: field.one, f"a_{j}": -t, f"a_{-j}": t}
        return op(image)

    def permute(perm):
        """The relabeling that applies perm to the indices 1, 2, 3."""
        def image(lab):
            kind, val = _parse_label(lab)
            if kind == "a":
                s = 1 if val > 0 else -1
                return {f"a_{s * perm[abs(val)]}": 1}
            if kind == "v":
                return {_vlab(frozenset(perm[x] for x in val)): 1}
            return {f"w_{perm[val]}": 1}
        return op(image)

    return {"tau_1": tau(1), "tau_2": tau(2), "tau_3": tau(3),
            "sigma": permute({1: 2, 2: 3, 3: 1}),
            "pi": permute({1: 2, 2: 1, 3: 3})}


# ---------------------------------------------------------------------------
# M_4A seed products
# ---------------------------------------------------------------------------

def _m4a_seed_products():
    """Seed products as {(label, label): {label: scalar over Q(t)}}.

    Sources: the dihedral-4A tables inside each {a_{+-i}, a_{+-j}, v_ij},
    the definitions w_i = a_i . v_(j,k), the dependency rewrites
    a_-i . v_(j,k) = w_i - t (a_i - a_-i), and the representative
    products of v.v, a.w, v.w and w.w (one per symmetry orbit).
    """
    t = QT.t
    c = QT.of
    seeds = {}

    def put(lu, lv, combo):
        key = tuple(sorted((lu, lv)))
        val = {lab: QT.of(x) for lab, x in combo.items()}
        if key in seeds and seeds[key] != val:
            raise ValueError(f"conflicting seed at {key}")
        seeds[key] = val

    # dihedral 4A inside each absolute-index pair {i, j}:
    # map b_-1 -> a_-j, b_0 -> a_i, b_1 -> a_j, b_2 -> a_-i, v -> v_ij
    d4a = dihedral("4A")
    for i, j in ((1, 2), (1, 3), (2, 3)):
        relabel = {"a_-1": f"a_-{j}", "a_0": f"a_{i}", "a_1": f"a_{j}",
                   "a_2": f"a_-{i}", "v_rho": _vlab((i, j))}
        labs = d4a.algebra.labels
        for p in range(len(labs)):
            for q in range(p, len(labs)):
                entry = d4a.algebra.mul_table[p][q]
                combo = {relabel[labs[k]]: x
                         for k, x in enumerate(entry) if x != 0}
                put(relabel[labs[p]], relabel[labs[q]], combo)

    # definitions of the w basis vectors and the dependency rewrites
    for i, (j, k) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        vl = _vlab((j, k))
        put(f"a_{i}", vl, {f"w_{i}": 1})
        put(f"a_-{i}", vl, {f"w_{i}": c(1), f"a_{i}": -t, f"a_-{i}": t})

    # representative products, one per orbit of the symmetry group
    put("v_12", "v_13", {
        "a_1": c("-8/3") * t,
        "a_2": c("2/3") * t, "a_-2": c("-2/3") * t,
        "a_3": c("2/3") * t, "a_-3": c("-2/3") * t,
        "v_12": c("1/4"), "v_13": c("1/4"), "v_23": c("-1/4"),
        "w_1": c("8/3"), "w_2": c("-4/3"), "w_3": c("-4/3")})
    put("a_1", "w_1", {"a_1": c("3/4") * t, "w_1": c("1/4")})
    put("a_-1", "w_1", {"a_1": c("-1/4") * t, "w_1": c("1/4")})
    put("a_2", "w_1", {
        "a_1": c("-3/64") * t, "a_-1": c("3/64") * t,
        "a_2": c("1/8") * t,
        "a_3": c("1/16") * t, "a_-3": c("-1/16") * t,
        "w_1": c("1/8"), "w_2": c("1/16"), "w_3": c("-1/8")})
    put("v_12", "w_1", {
        "a_1": c("-5/48") * t, "a_-1": c("-11/48") * t,
        "a_2": c("-11/24") * t, "a_-2": c("-5/24") * t,
        "v_12": c("1/8") * t, "w_1": c("1/4"), "w_2": c("1/4")})
    put("v_23", "w_1", {
        "a_1": (c(2) * t - 1) * t * c("1/4"),
        "a_-1": (c(2) * t - 1) * t * c("-1/4"),
        "v_23": c("1/4") * t, "w_1": c("1/2")})
    put("w_1", "w_1", {
        "a_1": (c(10) * t + 1) * t * c("1/16"),
        "a_-1": (c(2) * t - 1) * t * c("-1/16"),
        "v_23": c("1/16") * t, "w_1": c("1/4") * t})
    put("w_1", "w_2", {
        "a_1": t * t * c("1/32"), "a_-1": t * t * c("-1/32"),
        "a_2": t * t * c("1/32"), "a_-2": t * t * c("-1/32"),
        "a_3": (c(2) * t - 1) * t * c("1/32"),
        "a_-3": (c(2) * t + 1) * t * c("-1/32"),
        "v_12": c("1/32") * t, "v_13": c("1/64") * t, "v_23": c("1/64") * t,
        "w_1": c("1/8") * t, "w_2": c("1/8") * t, "w_3": c("-1/8") * t})
    return seeds


def m4a_gram() -> Matrix:
    """Closed-form Gram matrix of the Frobenius form on M_4A over Q(t)."""
    field = QT
    t = field.t
    c = field.of
    parsed = [_parse_label(lab) for lab in M4A_LABELS]

    def entry(x, y):
        (ka, va), (kb, vb) = x, y
        if ka > kb:
            (ka, va), (kb, vb) = (kb, vb), (ka, va)
        if ka == "a" and kb == "a":
            if va == vb:
                return c(1)
            if va == -vb:
                return c(0)
            return c("1/32")
        if ka == "a" and kb == "v":
            return c("3/8") if abs(va) in vb else t
        if ka == "a" and kb == "w":
            if va == vb:
                return t
            if va == -vb:
                return c(0)
            return c("3/16") * t
        if ka == "v" and kb == "v":
            if va == vb:
                return c(2)
            return c("1/2") - c("8/3") * t
        if ka == "v" and kb == "w":
            return c("-1/4") * t if vb in va else t
        # w, w
        if va == vb:
            return (c(3) * t + 1) * t * c("1/4")
        return (c(2) * t + 1) * t * c("1/16")

    n = len(parsed)
    return Matrix(field, [[entry(parsed[i], parsed[j]) for j in range(n)]
                          for i in range(n)])


_M4A_CACHE = []


def build_m4a() -> ConstructedAlgebra:
    """The 12-dimensional symbolic algebra M_4A over Q(t), completed from
    the seed products by symmetry equivariance.  Cached (immutable)."""
    if _M4A_CACHE:
        return _M4A_CACHE[0]
    field = QT
    labels = list(M4A_LABELS)
    pos = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)

    known = {}
    for (lu, lv), combo in _m4a_seed_products().items():
        v = [field.zero] * dim
        for lab, x in combo.items():
            v[pos[lab]] = x
        i, j = pos[lu], pos[lv]
        known[(i, j) if i <= j else (j, i)] = tuple(v)

    syms = m4a_symmetries()
    group = mulclose(field, list(syms.values()))

    def describe(p):
        return f"({labels[p[0]]}, {labels[p[1]]})"

    table = complete_table(field, dim, known, group, describe)
    alg = Algebra(field, labels, table_from_pairs(field, dim, table))
    form = BilinearForm(field, m4a_gram())
    result = ConstructedAlgebra(alg, form, _M4_AXES, syms, group)
    _M4A_CACHE.append(result)
    return result


def specialize(alg: Algebra, form: BilinearForm, t0):
    """Evaluate a symbolic algebra and form at a rational point t = t0."""
    t0 = rat(t0)
    z = QQ.zero
    table = [[tuple(z if x.is_zero() else x.evaluate(t0)
                    for x in alg.mul_table[i][j])
              for j in range(alg.dim)] for i in range(alg.dim)]
    return Algebra(QQ, alg.labels, table), specialize_form(form, t0)


def specialize_form(form: BilinearForm, t0) -> BilinearForm:
    """Evaluate a symbolic form alone at t = t0."""
    t0 = rat(t0)
    return BilinearForm(QQ, Matrix(QQ, [[x.evaluate(t0) for x in row]
                                        for row in form.gram.data]))


def specialize_m4a(t0) -> ConstructedAlgebra:
    m4a = build_m4a()
    alg, form = specialize(m4a.algebra, m4a.form, t0)
    return ConstructedAlgebra(alg, form, _M4_AXES)


def verify_dependencies(m4a: ConstructedAlgebra):
    """Check (a_i - a_-i) . v_(j,k) = t (a_i - a_-i); returns violations."""
    alg = m4a.algebra
    t = QT.t
    violations = []
    for i, (j, k) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        d = tuple(x - y for x, y in zip(alg.basis_vector(f"a_{i}"),
                                        alg.basis_vector(f"a_-{i}")))
        v = alg.basis_vector(_vlab((j, k)))
        lhs = alg.mul(d, v)
        rhs = tuple(t * x for x in d)
        if lhs != rhs:
            violations.append({"i": i, "lhs": alg.describe(lhs),
                               "rhs": alg.describe(rhs)})
    return violations


# ---------------------------------------------------------------------------
# Reference eigenvectors (verification inputs only)
# ---------------------------------------------------------------------------

def reference_a1_eigenvectors():
    """Published eigenvectors of ad_{a_1} on M_4A, as {eigenvalue: [vector]}.

    Three entries are stored with a_k + a_-k where the source prints
    a_k - a_-k (the 1/4-eigenspace is fixed by tau(a_1), which forces the
    symmetric combination), one v_12 is corrected to v_13, and the first
    1/4-eigenvector carries the sign pattern forced by tau(a_1)-invariance.
    """
    field = QT
    t = field.t
    c = field.of
    m4a = build_m4a()
    vec = m4a.algebra.vector
    return {
        c(0): [
            vec({"a_1": c("-1/4") * t, "a_2": c("-1/2") * t,
                 "a_-2": c("1/2") * t, "a_3": c("-1/2") * t,
                 "a_-3": c("1/2") * t, "v_23": c("-1/8"),
                 "w_2": c(1), "w_3": c(1)}),
            vec({"a_1": c("-3/4") * t, "v_23": c("-1/4"), "w_1": c(1)}),
            vec({"a_1": c("-1/2"), "a_2": c(2), "a_-2": c(2),
                 "v_12": c(1)}),
            vec({"a_1": c("-1/2"), "a_3": c(2), "a_-3": c(2),
                 "v_13": c(1)}),
            vec({"a_-1": c(1)}),
        ],
        c("1/4"): [
            vec({"a_2": c("1/2") * t, "a_-2": c("-1/2") * t,
                 "a_3": c("-1/2") * t, "a_-3": c("1/2") * t,
                 "w_2": c(-1), "w_3": c(1)}),
            vec({"a_1": -t, "w_1": c(1)}),
            vec({"a_1": c("-1/3"), "a_-1": c("-1/3"), "a_2": c("-2/3"),
                 "a_-2": c("-2/3"), "v_12": c(1)}),
            vec({"a_1": c("-1/3"), "a_-1": c("-1/3"), "a_3": c("-2/3"),
                 "a_-3": c("-2/3"), "v_13": c(1)}),
        ],
        c("1/32"): [
            vec({"a_2": c(1), "a_-2": c(-1)}),
            vec({"a_3": c(1), "a_-3": c(-1)}),
        ],
    }


def reference_v_eigenvectors(i, j):
    """Published eigenvectors of ad_{v_(i,j)} ({i,j,k} = {1,2,3}),
    as {eigenvalue: [vector]}; eigenvalues {0, 1/2, 3/8, t}.

    Three 0-eigenvectors are stored with corrections forced by the exact
    eigenspace computation: the w_i and w_j rows gain the omitted
    -3/16 (v_(i,k) + v_(j,k)) terms, and in the w_k row the printed
    coefficient -(2t+1)/4 of a_-k is actually (2t-1)/4.
    """
    field = QT
    t = field.t
    c = field.of
    (k,) = {1, 2, 3} - {i, j}
    m4a = build_m4a()
    vec = m4a.algebra.vector
    ai, mi = f"a_{i}", f"a_-{i}"
    aj, mj = f"a_{j}", f"a_-{j}"
    ak, mk = f"a_{k}", f"a_-{k}"
    vij, vik, vjk = _vlab((i, j)), _vlab((i, k)), _vlab((j, k))
    wi, wj, wk = f"w_{i}", f"w_{j}", f"w_{k}"
    return {
        c(0): [
            vec({ai: c("-4/3"), mi: c("-4/3"), aj: c("-4/3"),
                 mj: c("-4/3"), vij: c(1)}),
            vec({ai: c("1/8") - c("5/6") * t, mi: c("1/8") + c("1/6") * t,
                 aj: c("1/8"), mj: c("1/8"), ak: c("-1/4"), mk: c("-1/4"),
                 vik: c("-3/16"), vjk: c("-3/16"), wi: c(1)}),
            vec({ai: c("1/8"), mi: c("1/8"), aj: c("1/8") - c("5/6") * t,
                 mj: c("1/8") + c("1/6") * t, ak: c("-1/4"), mk: c("-1/4"),
                 vik: c("-3/16"), vjk: c("-3/16"), wj: c(1)}),
            vec({ai: c("-1/3") * t, mi: c("-1/3") * t, aj: c("-1/3") * t,
                 mj: c("-1/3") * t, ak: (c(2) * t + 1) * c("-1/4"),
                 mk: (c(2) * t - 1) * c("1/4"), wk: c(1)}),
        ],
        c("1/2"): [
            vec({ai: c(1), mi: c(1), aj: c(-1), mj: c(-1)}),
            vec({ai: c("-3/2") * t, mi: c("-1/2") * t, vij: c("1/2") * t,
                 vik: c("1/16"), vjk: c("-1/16"), wi: c(1)}),
            vec({aj: c("-3/2") * t, mj: c("-1/2") * t, vij: c("1/2") * t,
                 vik: c("-1/16"), vjk: c("1/16"), wj: c(1)}),
            vec({ak: c("-1/2") * t, mk: c("1/2") * t, vij: c("-1/2") * t,
                 wk: c(1)}),
        ],
        c("3/8"): [
            vec({ai: c(1), mi: c(-1)}),
            vec({aj: c(1), mj: c(-1)}),
        ],
        t: [
            vec({ak: c(1), mk: c(-1)}),
        ],
    }
