"""Test-only reference: M_4A and M_4B from three copies of a dihedral
algebra, one on each pair of absolute indices.

axia seeds both algebras with the published dihedral representatives of
the one index pair {1, 2} and completes them under the M_4 generators
(axia.m4).  The builds here seed every product of the three completed
dihedral copies instead, with all three definitions w_i = a_i . v_(j,k),
their dependency rewrites and a_-1 . w_1; tests/test_m4.py asserts that
both builds agree entry for entry.

specialize, specialize_matrix, specialize_form, specialize_m4a and
specialize_graded_m4a are the five evaluators at a point that axia.m4
had before every record over Q(t) took its own at(t0), copied verbatim.
They evaluate each entry with RationalFunction.evaluate, independently
of at; tests/test_m4.py holds at to them, and the Norton and axial
oracles evaluate through them.

reference_a1_eigenvectors, the published eigenvectors of ad_{a_1}, moved
here from axia.m4, where no command reached it; tests/test_m4.py checks
them against the product of build_m4a.
"""

from axia.algebra import Algebra, BilinearForm, ConstructedAlgebra
from axia.catalog import dihedral
from axia.completion import complete_algebra
from axia.linalg import Matrix, upper_pairs
from axia.m4 import (M4A_LABELS, M4B_LABELS, _M4_AXES, build_m4a,
                     graded_m4a, m4_symmetries, m4a_seeds)
from axia.scalars import QQ, QT, rat

INDEX_PAIRS = ((1, 2), (1, 3), (2, 3))


def embed(d, i, j, extra):
    """Seeds of the 5-dimensional dihedral algebra d (type 4A or 4B) on
    the axes a_{+-i}, a_{+-j}: a_0 -> a_i, a_1 -> a_j, a_2 -> a_-i,
    a_-1 -> a_-j and its extra vector -> extra; one seed per basis pair."""
    alg = d.algebra
    axes = {"a_-1": f"a_-{j}", "a_0": f"a_{i}", "a_1": f"a_{j}",
            "a_2": f"a_-{i}"}
    names = [axes.get(lab, extra) for lab in alg.labels]
    return [((names[p], names[q]),
             {names[k]: x for k, x in enumerate(alg.mul_table[p][q])
              if x != 0},
             d.form.gram.data[p][q])
            for p in range(alg.dim) for q in range(p, alg.dim)]


def m4b_three_copies():
    """M_4B as the union of three 4B copies; they cover every basis pair,
    so no symmetry completes them."""
    d4b = dihedral("4B")
    seeds = [seed for i, j in INDEX_PAIRS
             for seed in embed(d4b, i, j, "a_rho")]
    return complete_algebra(QQ, M4B_LABELS, seeds, [])


def m4a_three_copies():
    """M_4A from three 4A copies, the definitions w_i = a_i . v_(j,k), the
    rewrites a_-i . v_(j,k) = w_i - t (a_i - a_-i), a_-1 . w_1 and the
    representative products of v.v, a.w, v.w and w.w."""
    t = QT.t
    c = QT.of
    d4a = dihedral("4A")
    seeds = [seed for i, j in INDEX_PAIRS
             for seed in embed(d4a, i, j, f"v_{i}{j}")]
    for i, (j, k) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        seeds.append(((f"a_{i}", f"v_{j}{k}"), {f"w_{i}": 1}, t))
        seeds.append(((f"a_-{i}", f"v_{j}{k}"),
                      {f"w_{i}": 1, f"a_{i}": -t, f"a_-{i}": t}, t))
    seeds.append((("a_-1", "w_1"),
                  {"a_1": c("-1/4") * t, "w_1": c("1/4")}, 0))
    seeds += [seed for seed in m4a_seeds()
              if seed[0] == ("v_12", "v_13")
              or any(lab.startswith("w") for lab in seed[0])]
    return complete_algebra(QT, M4A_LABELS, seeds,
                            list(m4_symmetries(M4A_LABELS, QT).values()))


def specialize(alg: Algebra, form: BilinearForm, t0):
    """Evaluate a symbolic algebra and form at a rational point t = t0."""
    t0 = rat(t0)
    z = QQ.zero
    products = {(i, j): tuple(z if x.is_zero() else x.evaluate(t0)
                              for x in alg.mul_table[i][j])
                for i, j in upper_pairs(alg.dim)}
    return Algebra(QQ, alg.labels, products), specialize_form(form, t0)


def specialize_matrix(m: Matrix, t0) -> Matrix:
    """Evaluate a symbolic matrix at t = t0."""
    t0 = rat(t0)
    z = QQ.zero
    return Matrix(QQ, [[z if x.is_zero() else x.evaluate(t0) for x in row]
                       for row in m.data])


def specialize_form(form: BilinearForm, t0) -> BilinearForm:
    """Evaluate a symbolic form alone at t = t0."""
    t0 = rat(t0)
    gram = form.gram.data
    return BilinearForm(QQ, {(i, j): gram[i][j].evaluate(t0)
                             for i, j in upper_pairs(len(gram))})


def specialize_m4a(t0) -> ConstructedAlgebra:
    m4a = build_m4a()
    alg, form = specialize(m4a.algebra, m4a.form, t0)
    return ConstructedAlgebra(alg, form, _M4_AXES)


def specialize_graded_m4a(t0):
    """(algebra, form, grades) of graded_m4a at t = t0, without its axes
    and symmetries."""
    graded = graded_m4a()
    return (*specialize(graded.algebra, graded.form, t0), graded.grades)


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
