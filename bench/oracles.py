"""Checks of the program's outputs, made apart from the program.

Nothing here imports axia.  The checks read the JSON files the timed calls
wrote and compare them with the paper's theorems and closed forms, with
computations of the benchmark's own (stdlib fractions, sympy), or with
properties the method must have.  Each check returns a list of failure
messages; an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

# Norton-Sakuma: dimensions of the eight dihedral algebras.
DIHEDRAL_DIMS = {"2A": 3, "2B": 2, "3A": 4, "3C": 3, "4A": 5, "4B": 5,
                 "5A": 6, "6A": 8}
MONSTER_EVS = ("1", "0", "1/4", "1/32")
MONSTER_DIMS = (1, 5, 4, 2)
V4A_DIMS = (1, 4, 4, 2, 1)
JORDAN_CLOSURE_DIM = 9
AXES = ("a_1", "a_-1", "a_2", "a_-2", "a_3", "a_-3")
V_AXES = ("v_12", "v_13", "v_23")
CERTIFICATE_VERDICTS = ("POSITIVE", "NONNEGATIVE")


# ---------------------------------------------------------------------------
# The theorems of the abstract, for one rational point
# ---------------------------------------------------------------------------

def theorem(t):
    """(pd, psd, norton, radical_dim) that the paper proves at t."""
    t = Fraction(t)
    inside = 0 <= t <= Fraction(1, 6)
    radical = {Fraction(0): 3, Fraction(1, 6): 3, Fraction(9, 4): 5}
    return (0 < t < Fraction(1, 6), inside, inside, radical.get(t, 0))


def _points_match(report, points, what):
    got = [Fraction(r["t0"]) for r in report]
    if got != [Fraction(p) for p in points]:
        return [f"{what}: reported points {got} are not the requested ones"]
    return []


def check_definiteness(report, points):
    out = _points_match(report, points, "definiteness")
    for r in report:
        pd, psd, _, rad = theorem(r["t0"])
        if (r["pd"], r["psd"], r["radical_dim"]) != (pd, psd, rad):
            out.append(f"definiteness at t={r['t0']}: got pd={r['pd']} "
                       f"psd={r['psd']} radical={r['radical_dim']}, the "
                       f"theorem gives {pd} {psd} {rad}")
    return out


def check_radical(report, points, rank_at):
    """Radical dims against the theorem and against 12 - rank of the
    benchmark's own specialization of the Gram matrix (``rank_at``)."""
    out = _points_match(report, points, "radical")
    for r in report:
        expected = theorem(r["t0"])[3]
        own = 12 - rank_at(Fraction(r["t0"]))
        if not r["radical_dim"] == expected == own:
            out.append(f"radical at t={r['t0']}: got {r['radical_dim']}, "
                       f"theorem {expected}, own rank gives {own}")
    return out


def check_norton(report, points):
    out = _points_match(report, points, "norton")
    for r in report:
        expected = theorem(r["t0"])[2]
        if r["norton_psd"] is not expected:
            out.append(f"norton at t={r['t0']}: got {r['norton_psd']}, "
                       f"the theorem gives {expected}")
    return out


def check_majorana(report, points):
    out = _points_match(report, points, "majorana")
    for r in report:
        pd, _, norton, _ = theorem(r["t0"])
        got = (r["gram_pd"], r["norton_psd"], r["is_majorana"])
        if got != (pd, norton, pd and norton):
            out.append(f"majorana at t={r['t0']}: got {got}, the theorem "
                       f"gives {(pd, norton, pd and norton)}")
    return out


def check_quotients(report, points):
    out = _points_match(report, points, "quotient")
    for r in report:
        want = {"radical_dim": 3, "quotient_dim": 9, "fusion_ok": True,
                "gram_pd": True, "norton_psd": True, "pass": True}
        bad = {k: r.get(k) for k, v in want.items() if r.get(k) != v}
        if bad:
            out.append(f"quotient at t={r['t0']}: {bad}")
    return out


def check_catalog(listing):
    got = {r["type"]: r["dimension"] for r in listing}
    if got != DIHEDRAL_DIMS:
        return [f"dihedral dimensions {got} differ from Norton-Sakuma "
                f"{DIHEDRAL_DIMS}"]
    return []


def check_suite(report, target, required=()):
    """A verification report passes, each check has the value it names,
    and each (name, value) in ``required`` is among the checks."""
    out = []
    if report.get("target") != target:
        out.append(f"{target}: report is for {report.get('target')}")
    checks = {c["name"]: c for c in report.get("checks", ())}
    for c in checks.values():
        if not (c["pass"] and c["expected"] == c["actual"]):
            out.append(f"{target}: check {c['name']} failed: expected "
                       f"{c['expected']}, got {c['actual']}")
    for name, value in required:
        if name not in checks or checks[name]["actual"] != value:
            got = checks[name]["actual"] if name in checks else "missing"
            out.append(f"{target}: {name} is {got}, must be {value}")
    if report.get("pass") is not True:
        out.append(f"{target}: report does not pass")
    return out


def m4a_requirements():
    req = [("dimension", 12), ("frobenius violations", 0)]
    for ax in AXES:
        req += [(f"{ax} primitive", True), (f"{ax} fusion violations", 0)]
    return req


def v4a_requirements():
    req = [("jordan closure dim", JORDAN_CLOSURE_DIM),
           ("C2xC2 grading", True), ("jordan fusion on closure", True)]
    for v in V_AXES:
        req += [(f"{v} eigenspace dims", list(V4A_DIMS)),
                (f"{v} fusion violations", 0)]
    return req


# ---------------------------------------------------------------------------
# Plug-in evaluation of the exported symbolic algebra, with stdlib fractions
# ---------------------------------------------------------------------------

def poly_value(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + Fraction(c)
    return acc


def rf_value(entry, t):
    return poly_value(entry["num"], t) / poly_value(entry["den"], t)


def upper_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def check_polynomial_entries(doc):
    """Every structure constant and Gram entry lies in Q[t]."""
    out = []
    entries = [x for vec in doc["mul_table"] for x in vec] + doc["gram"]
    bad = sum(1 for x in entries if x["den"] != ["1"])
    if bad:
        out.append(f"{bad} exported entries have a nonconstant denominator")
    n = len(doc["labels"])
    if len(doc["mul_table"]) != n * (n + 1) // 2 or n != 12:
        out.append(f"export has {n} labels and {len(doc['mul_table'])} "
                   f"products")
    return out


def specialize_export(doc, t):
    """(full product table, Gram matrix) of the exported algebra at t,
    from the upper triangle the JSON format stores."""
    n = len(doc["labels"])
    table = [[None] * n for _ in range(n)]
    gram = [[None] * n for _ in range(n)]
    for (i, j), vec, g in zip(upper_pairs(n), doc["mul_table"], doc["gram"]):
        table[i][j] = table[j][i] = [rf_value(x, t) for x in vec]
        gram[i][j] = gram[j][i] = rf_value(g, t)
    return table, gram


def check_commutative(doc, full_table, t):
    """The in-memory product table read in both orders equals the exported
    upper triangle at t."""
    n = len(doc["labels"])
    for (i, j), vec in zip(upper_pairs(n), doc["mul_table"]):
        want = [rf_value(x, t) for x in vec]
        for a, b in ((i, j), (j, i)):
            if [rf_value(x, t) for x in full_table[a][b]] != want:
                return [f"e_{a} e_{b} differs from e_{i} e_{j} at t={t}"]
    return []


def check_frobenius(table, gram):
    """<e_i e_j, e_k> = <e_i, e_j e_k> for all basis triples."""
    n = len(gram)

    def form(u, k):
        return sum(u[r] * gram[r][k] for r in range(n) if u[r])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if form(table[i][j], k) != form(table[j][k], i):
                    return [f"Frobenius fails at ({i}, {j}, {k})"]
    return []


def rank(rows):
    """Rank of a rational matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        for k in range(r + 1, len(rows)):
            f = rows[k][c] / p
            if f:
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def eigen_dims(table, axis, eigenvalues):
    """Dimensions of the eigenspaces of ad(e_axis) for ``eigenvalues``."""
    n = len(table)
    ad = [[table[axis][c][r] for c in range(n)] for r in range(n)]
    return tuple(n - rank([[ad[r][c] - (lam if r == c else 0)
                            for c in range(n)] for r in range(n)])
                 for lam in eigenvalues)


def closure_dim(table, generators):
    """Dimension of the subalgebra generated by basis vectors."""
    n = len(table)

    def mul(u, v):
        out = [Fraction(0)] * n
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        c = ui * vj
                        for k, x in enumerate(table[i][j]):
                            if x:
                                out[k] += c * x
        return out
    basis = [[Fraction(int(k == g)) for k in range(n)] for g in generators]
    while True:
        new = basis + [mul(u, v) for a, u in enumerate(basis)
                       for v in basis[a:]]
        if rank(new) == rank(basis):
            return rank(basis)
        basis = _independent(new)


def _independent(vectors):
    out = []
    for v in vectors:
        if rank(out + [v]) > len(out):
            out.append(v)
    return out


def check_eigenspaces(doc, table, t):
    labels = doc["labels"]
    out = []
    evs = [Fraction(x) for x in MONSTER_EVS]
    for ax in AXES:
        got = eigen_dims(table, labels.index(ax), evs)
        if got != MONSTER_DIMS:
            out.append(f"{ax} eigenspace dims {got} at t={t}, must be "
                       f"{MONSTER_DIMS}")
    evs = [Fraction(x) for x in ("1", "0", "1/2", "3/8")] + [t]
    for v in V_AXES:
        got = eigen_dims(table, labels.index(v), evs)
        if got != V4A_DIMS:
            out.append(f"{v} eigenspace dims {got} at t={t}, must be "
                       f"{V4A_DIMS}")
    got = closure_dim(table, [labels.index(v) for v in V_AXES])
    if got != JORDAN_CLOSURE_DIM:
        out.append(f"Jordan closure dim {got} at t={t}, must be "
                   f"{JORDAN_CLOSURE_DIM}")
    return out


# ---------------------------------------------------------------------------
# Symbolic checks with sympy
# ---------------------------------------------------------------------------

def closed_form_det():
    import sympy
    t = sympy.Symbol("t")
    return (-t ** 3 * (6 * t - 1) ** 3 * (4 * t - 9) ** 6
            / (sympy.Integer(2) ** 19 * 3 ** 3))


def parse_function(text):
    """The program's printed polynomial or rational function in t."""
    import sympy
    return sympy.sympify(text.replace("^", "**"),
                         locals={"t": sympy.Symbol("t")})


def check_gram_matrix(doc):
    """sympy's determinant of the exported Gram matrix is the closed form."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    t = sympy.Symbol("t")
    n = len(doc["labels"])
    g = [[None] * n for _ in range(n)]
    for (i, j), x in zip(upper_pairs(n), doc["gram"]):
        num = sum(sympy.Rational(c) * t ** k for k, c in enumerate(x["num"]))
        den = sum(sympy.Rational(c) * t ** k for k, c in enumerate(x["den"]))
        g[i][j] = g[j][i] = num / den
    m = DomainMatrix.from_Matrix(sympy.Matrix(g))
    det = m.domain.to_sympy(m.det())
    if sympy.cancel(det - closed_form_det()) != 0:
        return [f"sympy determinant of the exported Gram is "
                f"{sympy.factor(det)}, not the closed form"]
    return []


def check_gram_report(report):
    """Determinant, LDLT diagonal and interval certificates of ``gram``."""
    import sympy
    out = []
    closed = closed_form_det()
    det = parse_function(report["determinant"])
    if sympy.cancel(det - closed) != 0:
        out.append(f"gram determinant {report['determinant']} is not the "
                   f"closed form")
    prod = sympy.Integer(1)
    for d in report["ldlt_diagonal"]:
        prod *= parse_function(d)
    if sympy.cancel(prod - closed) != 0:
        out.append("product of the LDLT diagonal is not the determinant")
    if report.get("determinant_matches_closed_form") is not True:
        out.append("gram reports determinant_matches_closed_form false")
    certs = report["interval_certificates"]
    if len(certs) != len(report["ldlt_diagonal"]) or any(
            c["verdict"] not in CERTIFICATE_VERDICTS
            or [Fraction(x) for x in c["interval"]] != [0, Fraction(1, 6)]
            for c in certs):
        out.append("interval certificates do not all certify [0, 1/6]")
    if report.get("pass") is not True:
        out.append("gram reports pass false")
    return out


def sympy_rank_at(doc):
    """Rank of the benchmark's own specialization of the exported Gram
    matrix at t, computed by sympy."""
    import sympy

    def rank_at(t):
        gram = specialize_export(doc, t)[1]
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in row] for row in gram]).rank()
    return rank_at

