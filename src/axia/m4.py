"""Construction of the two 4A/4B axial algebras: the 7-dimensional M_4B
over Q and the 12-dimensional one-parameter family M_4A over Q(t).

Both are assembled by completion.complete_algebra from seeds, each a basis
pair with its product and its form value, under the generators of
m4_symmetries: the three Miyamoto maps tau(a_i), the triality map sigma
and an index transposition pi.  Each is seeded with the published
dihedral representatives (4B or 4A) on the one index pair {1, 2}; M_4A
adds the definition w_1 = a_1 . v_23 and one representative pair per
symmetry orbit of the remaining products.
"""

from __future__ import annotations

from .algebra import Algebra, BilinearForm, ConstructedAlgebra
from .catalog import dihedral_seeds
from .completion import complete_algebra, label_map
from .linalg import Matrix
from .scalars import QQ, QT, rat

M4B_LABELS = ("a_1", "a_-1", "a_2", "a_-2", "a_3", "a_-3", "a_rho")
M4A_LABELS = ("a_1", "a_-1", "a_2", "a_-2", "a_3", "a_-3",
              "v_12", "v_13", "v_23", "w_1", "w_2", "w_3")

# signed axis index of each axis label
_M4_AXES = (1, -1, 2, -2, 3, -3)


def _parse_label(lab):
    kind, rest = lab.split("_")
    if kind == "v":
        return ("v", frozenset(int(c) for c in rest))
    return (kind, rest if rest == "rho" else int(rest))


def _vlab(pair):
    i, j = sorted(pair)
    return f"v_{i}{j}"


def m4_symmetries(labels, field):
    """The generating symmetry operators of M_4A (M4A_LABELS over QT) or
    M_4B (M4B_LABELS over QQ), each a signed relabeling k -> f(k) of the
    axis indices with f(-k) = -f(k): a_k -> a_f(k),
    v_ij -> v_|f(i)||f(j)|, and w_j -> w_m - t (a_m - a_-m) when
    f(j) = -m (plain w_m when f(j) = m), as a_-m . v = w_m - t (a_m - a_-m)
    forces; a_rho is fixed.

    tau_i negates every index but +-i; sigma is the 3-cycle (1 2 3) on
    indices and pi the transposition (1 2).
    """
    def relabeling(f):
        def signed(k):
            return f[k] if k > 0 else -f[-k]

        def image(lab):
            kind, val = _parse_label(lab)
            if val == "rho":
                return {lab: 1}
            if kind == "a":
                return {f"a_{signed(val)}": 1}
            if kind == "v":
                return {_vlab(abs(signed(k)) for k in val): 1}
            m = signed(val)
            if m > 0:
                return {f"w_{m}": 1}
            return {f"w_{-m}": 1, f"a_{-m}": -field.t, f"a_{m}": field.t}
        return label_map(field, labels, image)

    syms = {f"tau_{i}": relabeling({j: j if j == i else -j
                                    for j in (1, 2, 3)})
            for i in (1, 2, 3)}
    syms["sigma"] = relabeling({1: 2, 2: 3, 3: 1})
    syms["pi"] = relabeling({1: 2, 2: 1, 3: 3})
    return syms


def _dihedral_seeds_on_12(name, extra):
    """The seeds of the dihedral algebra name (4A or 4B) on the axes
    a_{+-1}, a_{+-2}: a_0 -> a_1, a_1 -> a_2, a_2 -> a_-1, a_-1 -> a_-2 and
    its extra vector -> extra."""
    names = {"a_-1": "a_-2", "a_0": "a_1", "a_1": "a_2", "a_2": "a_-1"}
    _, seeds, _ = dihedral_seeds(name)
    return [((names.get(u, extra), names.get(v, extra)),
             {names.get(k, extra): c for k, c in product.items()}, value)
            for (u, v), product, value in seeds]


# ---------------------------------------------------------------------------
# M_4B
# ---------------------------------------------------------------------------

def build_m4b() -> ConstructedAlgebra:
    """The 7-dimensional algebra on six axes a_{+-1}, a_{+-2}, a_{+-3}
    sharing one extra vector a_rho = a_i + a_-i - 8 a_i . a_-i.

    Pairs with different absolute index generate dihedral 4B; pairs
    {a_i, a_-i} generate 2A, all with the same a_rho.  Seeded with the 4B
    representatives on {1, 2} and completed under m4_symmetries.
    """
    syms = m4_symmetries(M4B_LABELS, QQ)
    alg, form = complete_algebra(QQ, M4B_LABELS,
                                 _dihedral_seeds_on_12("4B", "a_rho"),
                                 list(syms.values()))
    return ConstructedAlgebra(alg, form, _M4_AXES, syms)


# ---------------------------------------------------------------------------
# M_4A seeds
# ---------------------------------------------------------------------------

def m4a_seeds():
    """Seeds of M_4A as ((label, label), {label: scalar}, form value) over
    Q(t).

    Sources: the dihedral-4A representatives on {a_{+-1}, a_{+-2}, v_12},
    the definition w_1 = a_1 . v_23, and the representative products of
    v.v, a.w, v.w and w.w (one per symmetry orbit).  The generators derive
    the rest, among them w_i = a_i . v_(j,k), the dependency rewrites
    a_-i . v_(j,k) = w_i - t (a_i - a_-i) and a_-1 . w_1.
    """
    t = QT.t
    c = QT.of
    seeds = _dihedral_seeds_on_12("4A", "v_12")
    seeds += [
        (("a_1", "v_23"), {"w_1": 1}, t),
        (("v_12", "v_13"), {
            "a_1": c("-8/3") * t,
            "a_2": c("2/3") * t, "a_-2": c("-2/3") * t,
            "a_3": c("2/3") * t, "a_-3": c("-2/3") * t,
            "v_12": c("1/4"), "v_13": c("1/4"), "v_23": c("-1/4"),
            "w_1": c("8/3"), "w_2": c("-4/3"), "w_3": c("-4/3")},
         c("1/2") - c("8/3") * t),
        (("a_1", "w_1"), {"a_1": c("3/4") * t, "w_1": c("1/4")}, t),
        (("a_2", "w_1"), {
            "a_1": c("-3/64") * t, "a_-1": c("3/64") * t,
            "a_2": c("1/8") * t,
            "a_3": c("1/16") * t, "a_-3": c("-1/16") * t,
            "w_1": c("1/8"), "w_2": c("1/16"), "w_3": c("-1/8")},
         c("3/16") * t),
        (("v_12", "w_1"), {
            "a_1": c("-5/48") * t, "a_-1": c("-11/48") * t,
            "a_2": c("-11/24") * t, "a_-2": c("-5/24") * t,
            "v_12": c("1/8") * t, "w_1": c("1/4"), "w_2": c("1/4")},
         c("-1/4") * t),
        (("v_23", "w_1"), {
            "a_1": (c(2) * t - 1) * t * c("1/4"),
            "a_-1": (c(2) * t - 1) * t * c("-1/4"),
            "v_23": c("1/4") * t, "w_1": c("1/2")}, t),
        (("w_1", "w_1"), {
            "a_1": (c(10) * t + 1) * t * c("1/16"),
            "a_-1": (c(2) * t - 1) * t * c("-1/16"),
            "v_23": c("1/16") * t, "w_1": c("1/4") * t},
         (c(3) * t + 1) * t * c("1/4")),
        (("w_1", "w_2"), {
            "a_1": t * t * c("1/32"), "a_-1": t * t * c("-1/32"),
            "a_2": t * t * c("1/32"), "a_-2": t * t * c("-1/32"),
            "a_3": (c(2) * t - 1) * t * c("1/32"),
            "a_-3": (c(2) * t + 1) * t * c("-1/32"),
            "v_12": c("1/32") * t, "v_13": c("1/64") * t,
            "v_23": c("1/64") * t,
            "w_1": c("1/8") * t, "w_2": c("1/8") * t,
            "w_3": c("-1/8") * t},
         (c(2) * t + 1) * t * c("1/16")),
    ]
    return seeds


_M4A_CACHE = []


def build_m4a() -> ConstructedAlgebra:
    """The 12-dimensional symbolic algebra M_4A over Q(t) with its
    Frobenius form, completed from the seeds under the five symmetry
    generators.  Cached (immutable)."""
    if _M4A_CACHE:
        return _M4A_CACHE[0]
    syms = m4_symmetries(M4A_LABELS, QT)
    alg, form = complete_algebra(QT, M4A_LABELS, m4a_seeds(),
                                 list(syms.values()))
    result = ConstructedAlgebra(alg, form, _M4_AXES, syms)
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
