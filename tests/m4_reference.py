"""Test-only reference: M_4A and M_4B from three copies of a dihedral
algebra, one on each pair of absolute indices.

axia seeds both algebras with the published dihedral representatives of
the one index pair {1, 2} and completes them under the M_4 generators
(axia.m4).  The builds here seed every product of the three completed
dihedral copies instead, with all three definitions w_i = a_i . v_(j,k),
their dependency rewrites and a_-1 . w_1; tests/test_m4.py asserts that
both builds agree entry for entry.
"""

from axia.catalog import dihedral
from axia.completion import complete_algebra
from axia.m4 import M4A_LABELS, M4B_LABELS, m4_symmetries, m4a_seeds
from axia.scalars import QQ, QT

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
