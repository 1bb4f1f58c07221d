"""Quantitative certification of the 12-dimensional family M(t).

Reproduces the closed-form Gram determinant and LDLT diagonal, certifies
the positive-(semi)definiteness region [0, 1/6] via Sturm interval
certificates and exact grid verdicts, decides Norton's inequality through
the antisymmetrized product form on the exterior square (built from the
cleared product table and Gram matrix), certifies the Majorana
property and the 9-dimensional quotients at the boundary, and verifies
the 4A-axis fusion rule, its C2 x C2 grading and the Jordan-type
subalgebra generated by the three 4A axes.

Definiteness, the radical, Norton and Majorana at a rational point are
read off the signs at t0 of LDLT pivots over Q(t) (LDLTResult.signs),
by linalg.pd and psd as every LDLT verdict is: the signs of the Gram
matrix of build_m4a, and those of the four Norton blocks of the
C2 x C2-graded basis of m4.graded_m4a, whose basis change S has a
nonzero constant determinant, so that its verdicts are the ones on the
original basis.  Each matrix is factored once (_family_pivots);
away from the poles of its L and D no matrix is built at t0.  At a pole
(-1/4 and 3/8 for the Gram matrix, -7/8, -1/4 and 3/8 for the blocks),
or when a factorisation did not complete, the one fallback in
_point_signs decides the factored matrix at t0 by its own LDLT, with a
kernel only for a Gram matrix whose LDLT fails there.  The boundary
quotients are taken at t0 on the graded basis (at), since they need the
radical itself.

The verification suites and v4a_certify decompose one axis per symmetry
orbit: an automorphism g with g a = b conjugates ad_a to ad_b, so it
carries each eigenspace and fusion product of a onto those of b.  Only
passing rows are carried, along generators that is_automorphism accepted
in the same call; every failing row comes from a direct check.
quotient_certify does the same on the quotient, with the generators of
graded_m4a induced on it, and v4a_certify on the Jordan closure with
sigma induced on it (linalg.induced).

Every certification report is built and every verdict decided here.  A
report that carries a verdict holds it as "pass" (a verification suite,
gram, each quotient row); the command line only emits the report and
exits 1 when a "pass" is false.  The constructions of M_4A it reads (the
build, the graded basis, the Jordan closure of the v_ij, their published
eigenvectors, and the factorisations of the Gram matrix and of the
Norton blocks over Q(t)) are cached by name in m4._M4A_CACHE, and the
dihedral catalog, M_4B and the fusion rules once per process in catalog
and m4; no verdict or report is cached, and every check runs on every
call, the signs of the pivots at t0 included.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .algebra import (axis_decomposition, check_graded, form_products,
                      quotient, radical, subalgebra_closure, verify_fusion,
                      verify_frobenius, verify_grading, is_automorphism)
from .catalog import dihedral, f4a_rule, jordan_half_rule, monster_rule
from .errors import NotAnIdeal, NotIdempotent, NotSemisimple, PoleAtPoint
from .linalg import (Matrix, determinant, induced, kernel_basis, ldlt, pd,
                     psd, symmetric)
from .m4 import (build_m4a, build_m4b, cached, graded_m4a, jordan_m4a,
                 reference_v_eigenvectors, verify_dependencies)
from .scalars import (QT, RationalFunction, count_roots_open,
                      format_rational, rat, rational_sign)

# 12-point certification grid: both boundary points of [0, 1/6], interior
# points, near-boundary points and the degenerate radical point 9/4.
DEFAULT_GRID = ("-1/10", "-1/100", "0", "1/24", "1/12", "1/8", "1/6",
                "9/50", "1/5", "1", "2", "9/4")


# ---------------------------------------------------------------------------
# Gram determinant / LDLT diagonal / interval certificates
# ---------------------------------------------------------------------------

def gram_analysis():
    """Exact determinant and natural-order LDLT diagonal of the Gram
    matrix of the symbolic M_4A; the diagonal is the D of its cached
    factorisation (_family_pivots)."""
    (gram,) = _family_pivots("gram")
    return determinant(gram.m), gram.D


def gram_det_closed_form() -> RationalFunction:
    """-t^3 (6t-1)^3 (4t-9)^6 / (2^19 * 3^3)."""
    t = QT.t
    return (-(t ** 3) * (QT.of(6) * t - 1) ** 3 * (QT.of(4) * t - QT.of(9)) ** 6
            / QT.of(2 ** 19 * 3 ** 3))


class IntervalCertificate:
    """Sturm-based sign certificate for one rational function on [a, b].

    verdict: POSITIVE (no roots of numerator or denominator touch [a, b]
    and the midpoint sample is positive), NONNEGATIVE (no interior roots,
    nonnegative midpoint; endpoint roots allowed), or FAILS.
    """

    POSITIVE = "POSITIVE"
    NONNEGATIVE = "NONNEGATIVE"
    FAILS = "FAILS"

    def __init__(self, function, interval, verdict, witnesses):
        self.function = function
        self.interval = interval
        self.verdict = verdict
        self.witnesses = witnesses

    def to_json(self):
        return {"function": str(self.function),
                "interval": [format_rational(x) for x in self.interval],
                "verdict": self.verdict,
                "witnesses": self.witnesses}


def certify_interval(f, a, b) -> IntervalCertificate:
    """Certificate that the rational function f has constant sign on [a, b]."""
    a, b = rat(a), rat(b)
    f = QT.of(f)
    # counted first, so that a >= b raises even for f = 0
    den_in, den_a, den_b = count_roots_open(f.den, a, b)
    if f.is_zero():
        return IntervalCertificate(f, (a, b), IntervalCertificate.NONNEGATIVE,
                                   {"identically_zero": True})
    num_in, num_a, num_b = count_roots_open(f.num, a, b)
    mid = (a + b) / 2
    try:
        mid_sign = rational_sign(f.evaluate(mid))
    except PoleAtPoint:
        mid_sign = None
    witnesses = {
        "num_interior_roots": num_in, "den_interior_roots": den_in,
        "num_root_at_endpoints": [num_a, num_b],
        "den_root_at_endpoints": [den_a, den_b],
        "midpoint": format_rational(mid), "midpoint_sign": mid_sign,
    }
    if num_in or den_in or den_a or den_b or mid_sign is None or mid_sign < 0:
        verdict = IntervalCertificate.FAILS
    elif not (num_a or num_b) and mid_sign > 0:
        verdict = IntervalCertificate.POSITIVE
    else:
        verdict = IntervalCertificate.NONNEGATIVE
    return IntervalCertificate(f, (a, b), verdict, witnesses)


def certify_psd_interval(diag):
    """Interval certificates on [0, 1/6] for a sequence of LDLT diagonal
    entries; all NONNEGATIVE/POSITIVE together certify PSD there."""
    return [certify_interval(d, "0", "1/6") for d in diag]


def gram_report():
    """The gram report: the determinant against its closed form, the LDLT
    diagonal and its interval certificates on [0, 1/6].  It passes when
    the determinant matches and no certificate FAILS."""
    det, diag = gram_analysis()
    certs = certify_psd_interval(diag)
    det_ok = det == gram_det_closed_form()
    return {"target": "gram", "determinant": str(det),
            "determinant_matches_closed_form": det_ok,
            "ldlt_diagonal": [str(d) for d in diag],
            "interval_certificates": [c.to_json() for c in certs],
            "pass": det_ok and all(c.verdict != IntervalCertificate.FAILS
                                   for c in certs)}


# ---------------------------------------------------------------------------
# Point verdicts, read off the family's pivots
# ---------------------------------------------------------------------------

def _family_pivots(name):
    """The ldlt over Q(t) of each matrix a point verdict reads: for "gram"
    the Gram matrix of build_m4a, and for "norton" the four norton_blocks
    of graded_m4a.  Made on first use, never by build_m4a, and cached
    under "<name>_pivots" in m4._M4A_CACHE, so they go with the build."""
    def factor():
        if name == "gram":
            return [ldlt(build_m4a().form.gram)]
        graded = graded_m4a()
        return [ldlt(m) for m in norton_blocks(graded.algebra, graded.form,
                                               graded.grades)]
    return cached(f"{name}_pivots", factor)


def _point_signs(name, t0):
    """(signs, failed): the signs at t0 of the pivots of the
    _family_pivots name, in one list, or None with failed the first of
    their matrices at t0 that is not PSD there (else failed is None).

    The table and form of M_4A are polynomial in t, so each matrix at t0
    is its cached ldlt r's matrix r.m evaluated there, and r.signs(t0)
    decide it with nothing built at t0.  Where those are None, at a pole
    of r or when r did not complete, r.m.at(t0), which meets no pole, is
    factored instead; a matrix whose ldlt fails there is not PSD."""
    t0 = rat(t0)
    signs = []
    for r in _family_pivots(name):
        s = r.signs(t0)
        if s is None:
            m = r.m.at(t0)
            s = ldlt(m).signs()
            if s is None:
                return None, m
        signs += s
    return signs, None


def _gram_nullity(signs, failed):
    """The nullity of the Gram matrix at a point, from its _point_signs:
    the number of zeros among the signs, or the size of the kernel of
    the matrix whose LDLT failed there."""
    if failed is None:
        return signs.count(0)
    return len(kernel_basis(failed))


def radical_dimension(t0) -> int:
    """The dimension of the radical of M(t0), the nullity of its Gram
    matrix."""
    return _gram_nullity(*_point_signs("gram", t0))


def radical_report(points):
    """The radical dimension of M(t0) at each point."""
    return [{"t0": format_rational(rat(p)),
             "radical_dim": radical_dimension(p)} for p in points]


def definiteness_report(grid=DEFAULT_GRID):
    """Whether the form of M(t0) is positive definite and semidefinite,
    and its radical dimension, at each point of the grid."""
    report = []
    for point in grid:
        t0 = rat(point)
        signs, failed = _point_signs("gram", t0)
        report.append({"t0": format_rational(t0), "pd": pd(signs),
                       "psd": psd(signs),
                       "radical_dim": _gram_nullity(signs, failed)})
    return report


# ---------------------------------------------------------------------------
# Norton's inequality
# ---------------------------------------------------------------------------

def norton_blocks(alg, form, grades):
    """The Norton form on the exterior square,
    b[(i,j),(k,l)] = <e_i e_k, e_j e_l> - <e_j e_k, e_i e_l>
    on the pairs i < j, split by grade: one Matrix per grade g_i ^ g_j of
    the pairs, in ascending grade, each on its pairs in lexicographic
    order.

    b is antisymmetric in (i, j) and in (k, l), so the form on the pairs
    i < j is positive semidefinite iff the whole n^2 x n^2 matrix is, i.e.
    iff Norton's inequality <u.u, v.v> >= <u.v, u.v> holds for all u, v.
    grades[i] is the grade of basis vector i, an int under xor, for a
    basis on which the product and the form are graded
    (algebra.graded_by_involutions).  Then <e_i e_k, e_j e_l> is zero
    unless g_i ^ g_k = g_j ^ g_l, that is unless the pairs (i, j) and
    (k, l) have the same grade, so the form is the direct sum of these
    blocks and is PSD iff each block is.  With every grade 0 the one
    block is the whole form on the pairs.

    The entries are computed on numerators: the structure constants
    alg.table_nums over alg.table_den contracted with form_products, the
    numerators gp[j][l][c] of <e_c, e_j e_l> over table_den * gram_den, so
    each entry is a numerator difference over table_den^2 * gram_den that
    is normalised once.
    """
    n = alg.dim
    table = alg.table_nums
    gp, den = form_products(alg, form)
    den *= alg.table_den
    join = alg.field.join
    by_grade = {}
    for i in range(n):
        for j in range(i + 1, n):
            by_grade.setdefault(grades[i] ^ grades[j], []).append((i, j))

    def block(pairs):
        def entry(r, s):
            (i, j), (k, l) = pairs[r], pairs[s]
            gjl, gil = gp[j][l], gp[i][l]
            return join(sum(w * gjl[c] for c, w in table[i][k])
                        - sum(w * gil[c] for c, w in table[j][k]), den)
        return Matrix(alg.field, symmetric(len(pairs), entry))
    return [block(by_grade[g]) for g in sorted(by_grade)]


def norton_psd(alg, form, grades) -> bool:
    """Exact verdict on Norton's inequality: every block of norton_blocks
    positive semidefinite, each decided by its LDLT."""
    return all(ldlt(b).is_psd() for b in norton_blocks(alg, form, grades))


def norton_check(t0) -> bool:
    """Exact PSD verdict of the Norton form of M(t0), on the blocks of 36,
    10, 10 and 10 pairs of graded_m4a (_point_signs)."""
    return psd(_point_signs("norton", t0)[0])


def norton_grid_report(grid=DEFAULT_GRID):
    return [{"t0": format_rational(rat(p)), "norton_psd": norton_check(p)}
            for p in grid]


def grid_report():
    """The definiteness and Norton verdicts on DEFAULT_GRID."""
    return {"definiteness": definiteness_report(),
            "norton": norton_grid_report()}


def norton_symbolic():
    """Opt-in symbolic LDLT of the Norton form over Q(t).

    Factors the block on the exterior square and reports the diagonal of
    the whole n^2 x n^2 matrix: the pivots at the pairs i < j and zeros
    elsewhere, which is what the natural-order LDLT of the whole matrix
    gives.  A zero pivot above a nonzero column ends it with status
    FAILED_INDEFINITE and the diagonal so far; the grid verdicts never
    depend on this path.
    """
    m4a = build_m4a()
    (block,) = norton_blocks(m4a.algebra, m4a.form, [0] * m4a.algebra.dim)
    result = ldlt(block)
    diag = _interleave_wedge(result.D, m4a.algebra.dim)
    return {"status": result.status, "columns_processed": len(diag),
            "diagonal": diag}


def norton_symbolic_report():
    """norton_symbolic() as a report, its diagonal as strings."""
    rep = norton_symbolic()
    return {"target": "norton-symbolic", "status": rep["status"],
            "columns_processed": rep["columns_processed"],
            "diagonal": [str(d) for d in rep["diagonal"]]}


def _interleave_wedge(pivots, n):
    """The first pivots of the exterior-square block, placed at their pairs
    i < j among all n^2 ordered pairs, with zeros at i >= j; cut before
    the first pair with no pivot.  Both orders are lexicographic, so the
    block's pairs come in the same order here."""
    pivots = iter(pivots)
    diag = []
    for i in range(n):
        for j in range(n):
            d = next(pivots, None) if i < j else QT.zero
            if d is None:
                return diag
            diag.append(d)
    return diag


# ---------------------------------------------------------------------------
# Majorana certification
# ---------------------------------------------------------------------------

class MajoranaVerdict:
    """Majorana = positive definite Frobenius form + Norton's inequality."""

    def __init__(self, t0, gram_pd, norton_psd):
        self.t0 = t0
        self.gram_pd = gram_pd
        self.norton_psd = norton_psd

    @property
    def is_majorana(self):
        return self.gram_pd and self.norton_psd

    def to_json(self):
        return {"t0": format_rational(self.t0), "gram_pd": self.gram_pd,
                "norton_psd": self.norton_psd,
                "is_majorana": self.is_majorana}


def majorana_certify(t0) -> MajoranaVerdict:
    """Both verdicts at t0: the Gram matrix and the Norton blocks
    (_point_signs)."""
    t0 = rat(t0)
    return MajoranaVerdict(t0, pd(_point_signs("gram", t0)[0]),
                           psd(_point_signs("norton", t0)[0]))


def quotient_certify(t0):
    """At a boundary point (radical dimension 3): quotient graded_m4a at
    t0 by its radical (one that is no ideal fails the report), check the
    grading and re-certify fusion on the axes S^-1 a_k, PD and Norton.

    Fusion is checked on one axis per orbit (_per_orbit) under the graded
    generators induced on the quotient through project.  The quotient
    form is nondegenerate, the radical being divided out, so a generator
    that is_automorphism accepts there is injective and carries each
    eigenspace and fusion product of an axis onto those of its image."""
    t0 = rat(t0)
    spec = graded_m4a().at(t0)
    alg, form, grades = spec.algebra, spec.form, spec.grades
    rad = radical(form)
    report = {"t0": format_rational(t0), "radical_dim": len(rad)}
    if len(rad) != 3:
        report.update({"pass": False,
                       "reason": f"expected radical dim 3, got {len(rad)}"})
        return report
    try:
        qalg, qform, project = quotient(alg, form, rad)
    except NotAnIdeal as exc:
        report.update({"pass": False, "reason": f"radical: {exc}"})
        return report
    qgrades = [grades[alg.index(lab)] for lab in qalg.labels]
    check_graded(qalg, qform, qgrades)
    report["quotient_dim"] = qalg.dim
    rule = monster_rule()
    lifts = [alg.basis_vector(lab) for lab in qalg.labels]
    gens = {name: induced(g, lifts, project)
            for name, g in spec.symmetries.items()}
    results = _per_orbit(
        [project(a) for a in spec.axes], gens,
        _verified_symmetries(qalg, gens, qform),
        lambda a: _fusion_result(qalg, a, rule), _is_monster_axis)
    failures = [f"a_{k}: {r.failure}"
                for k, r in zip(spec.axis_keys, results) if r.failure]
    if failures:
        report["axis_failures"] = failures
    fusion_ok = all(map(_is_monster_axis, results))
    gram_pd = ldlt(qform.gram).is_pd()
    norton_ok = norton_psd(qalg, qform, qgrades)
    report.update({
        "fusion_ok": fusion_ok, "gram_pd": gram_pd,
        "norton_psd": norton_ok,
        "pass": (qalg.dim == 9 and fusion_ok and gram_pd and norton_ok),
    })
    return report


# ---------------------------------------------------------------------------
# 4A-axis fusion / grading / Jordan subalgebra
# ---------------------------------------------------------------------------

def f4a_grading():
    """The C2 x C2 grading of the 4A-axis rule, with C2 x C2 as {0, 1, 2, 3}
    under xor: {1, 0, 1/2} -> 0, {3/8} -> 1, {t} -> 2 (nothing is graded
    3)."""
    c = QT.of
    return {c(1): 0, c(0): 0, c("1/2"): 0, c("3/8"): 1, QT.t: 2}


class Checks:
    """The named checks of one verification suite.  Each check records an
    expected and an actual value and passes when they are equal."""

    def __init__(self):
        self.items = []

    def add(self, name, expected, actual):
        self.items.append({"name": name, "expected": expected,
                           "actual": actual, "pass": expected == actual})

    def report(self, target):
        """The suite's JSON report: every check and the overall verdict."""
        return {"target": target, "checks": self.items,
                "pass": all(c["pass"] for c in self.items)}


def v4a_certify():
    """Certify each 4A axis v_(i,j) of the symbolic M_4A: idempotency,
    eigenspace dims (1, 4, 4, 2, 1), published eigenvectors, the 4A-axis
    fusion rule and its C2 x C2 grading; plus the 9-dimensional Jordan
    subalgebra generated by the three v's, read from its cache
    (m4.jordan_m4a) and checked on every call.  The v's are one orbit
    under sigma (the tau_i fix them); in the closure sigma acts through
    coords, which raises unless sigma maps the closure into itself."""
    m4a = build_m4a()
    alg = m4a.algebra
    rule = f4a_rule()
    verified = _verified_symmetries(alg, m4a.symmetries, m4a.form)
    sigma = m4a.symmetries["sigma"]
    pairs = ((1, 2), (1, 3), (2, 3))
    vlabs = [f"v_{i}{j}" for i, j in pairs]
    vgens = [alg.basis_vector(lab) for lab in vlabs]
    results = _per_orbit(vgens, {"sigma": sigma}, verified,
                         lambda v: _fusion_result(alg, v, rule),
                         lambda r: (r.dims == (1, 4, 4, 2, 1)
                                    and r.violations == 0))
    checks = Checks()
    for (i, j), lab, v, r in zip(pairs, vlabs, vgens, results):
        checks.add(f"{lab} idempotent", True, alg.is_idempotent(v))
        if r.failure is not None:
            _add_failure(checks, lab, r.failure)
            continue
        checks.add(f"{lab} eigenspace dims", (1, 4, 4, 2, 1), r.dims)
        checks.add(f"{lab} reference eigenvectors", True,
                   _in_eigenspaces(alg, v, reference_v_eigenvectors(i, j)))
        checks.add(f"{lab} fusion violations", 0, r.violations)
    checks.add("C2xC2 grading", True, verify_grading(rule, f4a_grading()))

    closure, sub, coords = jordan_m4a()
    checks.add("jordan closure dim", 9, len(closure))
    jrule = jordan_half_rule(QT)
    try:
        jgens = {"sigma": induced(sigma, closure, coords)}
    except ValueError:
        jgens = {}
    results = _per_orbit([coords(v) for v in vgens], jgens, verified,
                         lambda v: _fusion_result(sub, v, jrule),
                         lambda r: r.failure is None and r.violations == 0)
    for lab, r in zip(vlabs, results):
        if r.failure is not None:
            _add_failure(checks, f"jordan {lab}", r.failure)
    checks.add("jordan fusion on closure", True,
               all(r.failure is None and r.violations == 0 for r in results))
    return checks.report("v4a")


# ---------------------------------------------------------------------------
# Verification suites (CLI-facing)
# ---------------------------------------------------------------------------

def verify_eigenspace_orthogonality(alg, form, dec):
    """Eigenvectors of distinct eigenvalues are orthogonal under a
    Frobenius form; returns violations."""
    field = alg.field
    violations = []
    evs = dec.eigenvalues
    for a, lam in enumerate(evs):
        for mu in evs[a + 1:]:
            for u in dec.spaces[lam]:
                for v in dec.spaces[mu]:
                    val = form.apply(u, v)
                    if not field.is_zero(val):
                        violations.append({
                            "eigenvalues": (str(lam), str(mu)),
                            "u": alg.describe(u), "v": alg.describe(v),
                            "value": str(val)})
    return violations


def _in_eigenspaces(alg, axis, references):
    """True iff axis * w == lam w for each published eigenvector w, given
    as {eigenvalue: [vector]}: w lies in ker(ad_axis - lam)."""
    return all(alg.mul(axis, w) == tuple(lam * x for x in w)
               for lam, vecs in references.items() for w in vecs)


# failure: why axis_decomposition rejected the axis, or None; then its
# eigenspace dims, primitivity and number of fusion violations
_AxisResult = namedtuple("_AxisResult", "failure dims primitive violations")


def _fusion_result(alg, axis, rule):
    """The _AxisResult of decomposing axis and checking the rule on it."""
    try:
        dec = axis_decomposition(alg, axis, rule.eigenvalues)
    except (NotIdempotent, NotSemisimple) as exc:
        return _AxisResult(str(exc), None, None, None)
    return _AxisResult(None, dec.dims, dec.is_primitive,
                       len(verify_fusion(alg, dec, rule)))


def _is_monster_axis(result):
    """True iff the _AxisResult is primitive with no fusion violations."""
    return bool(result.primitive) and result.violations == 0


def _add_failure(checks, name, failure):
    checks.add(f"{name} decomposition", "idempotent, semisimple", failure)


def _verified_symmetries(alg, symmetries, form):
    """verified(name): is_automorphism(alg, symmetries[name], form),
    decided on the first ask; each report makes its own and drops it."""
    return cache(lambda name: is_automorphism(alg, symmetries[name], form))


def _orbit(start, generators, verified):
    """The orbit of start under those generators (name -> Matrix) that
    verified accepts, walked by matvec.  verified is asked about a
    generator only when it carries an orbit element to a new vector."""
    orbit = [start]
    for v in orbit:
        for name, g in generators.items():
            w = g.matvec(v)
            if w not in orbit and verified(name):
                orbit.append(w)
    return orbit


def _per_orbit(axes, generators, verified, check, passes):
    """check(axis) for each of the axes (tuples), made once per orbit: a
    result that passes is copied along its axis's orbit under the verified
    generators, and every axis that none reaches is checked directly."""
    results = {}
    for axis in axes:
        if axis not in results:
            results[axis] = result = check(axis)
            if passes(result):
                for w in _orbit(axis, generators, verified):
                    results.setdefault(w, result)
    return [results[axis] for axis in axes]


def _axial_checks(checks, built, rule, verified):
    """Add, for each axis in order, whether it is primitive and its
    number of fusion violations under the rule (or, for an axis that does
    not decompose, the reason), then the number of Frobenius violations
    of the form, checking one axis per orbit (_per_orbit)."""
    alg = built.algebra
    results = _per_orbit(built.axes, built.symmetries, verified,
                         lambda ax: _fusion_result(alg, ax, rule),
                         _is_monster_axis)
    for key, r in zip(built.axis_keys, results):
        if r.failure is not None:
            _add_failure(checks, f"a_{key}", r.failure)
            continue
        checks.add(f"a_{key} primitive", True, r.primitive)
        checks.add(f"a_{key} fusion violations", 0, r.violations)
    checks.add("frobenius violations", 0,
               len(verify_frobenius(alg, built.form)))


def verify_m4a():
    """Default verification suite for the symbolic M_4A: Monster fusion on
    all six axes, Frobenius property, linear dependencies, symmetry
    operators (automorphisms and isometries)."""
    m4a = build_m4a()
    verified = _verified_symmetries(m4a.algebra, m4a.symmetries, m4a.form)
    checks = Checks()
    checks.add("dimension", 12, m4a.algebra.dim)
    _axial_checks(checks, m4a, monster_rule(QT), verified)
    checks.add("dependency violations", 0, len(verify_dependencies(m4a)))
    for name in m4a.symmetries:
        checks.add(f"{name} automorphism+isometry", True, verified(name))
    return checks.report("m4a")


def verify_m4b():
    """Verification suite for M_4B: dimension, closure of the six axes,
    Monster fusion on each axis and the Frobenius property."""
    m4b = build_m4b()
    checks = Checks()
    checks.add("dimension", 7, m4b.algebra.dim)
    checks.add("closure dim", 7,
               len(subalgebra_closure(m4b.algebra, m4b.axes)[0]))
    _axial_checks(checks, m4b, monster_rule(),
                  _verified_symmetries(m4b.algebra, m4b.symmetries, m4b.form))
    return checks.report("m4b")


def verify_dihedral(name):
    """Verification suite for one dihedral type: Monster fusion on each
    axis, the Frobenius property, the published eigenvectors of a_0 and
    the orbit of the first axis under the relabeling generators that are
    automorphisms."""
    d = dihedral(name)
    verified = _verified_symmetries(d.algebra, d.symmetries, d.form)
    checks = Checks()
    _axial_checks(checks, d, monster_rule(), verified)
    checks.add("reference eigenvectors", True,
               _in_eigenspaces(d.algebra, d.algebra.basis_vector("a_0"),
                               d.reference_eigenvectors))
    checks.add("axis orbit size", d.n_axes,
               len(_orbit(d.axes[0], d.symmetries, verified)))
    return checks.report(f"dihedral:{name}")
