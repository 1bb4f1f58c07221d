"""Exact dense linear algebra: RREF, kernel, determinant, LDLT; the integer
elimination kernel against the field loop it replaced and sympy."""

import random
from math import prod

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import elimination_reference
from axia import certify as cert
from axia import linalg
from axia.errors import DimensionMismatch
from axia.linalg import (LDLTResult, Matrix, _expand_l, determinant,
                         kernel_basis, ldlt, reconstruct_ldlt, remainder_map,
                         rref, span_rref, vec_is_zero)
from axia.scalars import QQ, QT, _past, rat


def qm(rows):
    return Matrix(QQ, [[rat(x) for x in row] for row in rows])


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(str(x)) for x in row]
                         for row in m.data])


# ---------------------------------------------------------------------------
# Zero-skipping matvec / matmul against a dense reference
# ---------------------------------------------------------------------------

def dense_matvec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), m.field.zero)
                 for row in m.data)


def dense_matmul(a, b):
    return Matrix(a.field, [dense_matvec(b.transpose(), row) for row in a.data])


def random_entry(field, rng, density):
    if rng.random() >= density:
        return field.zero
    if field is QQ:
        return rat(f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}")
    t = QT.t
    return (QT.of(rng.randint(-4, 4)) * t * t + QT.of(rng.randint(-4, 4))) \
        / (t + QT.of(rng.randint(1, 3)))


def random_sparse(field, rng, rows, cols, density):
    return Matrix(field, [[random_entry(field, rng, density)
                           for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [QQ, QT], ids=["QQ", "QT"])
def test_sparse_products_equal_dense_reference(field):
    # each sum starts at its first nonzero product; it equals the dense sum
    # started at zero by value and by repr, and the appended zero row of a
    # has no nonzero product and stays zero
    rng = random.Random(11)
    for density in (0.0, 0.1, 0.3, 1.0):
        for _ in range(4):
            r, k, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = random_sparse(field, rng, r, k, density)
            a = Matrix(field, a.data + [[field.zero] * k])
            b = random_sparse(field, rng, k, c, density)
            v = tuple(random_entry(field, rng, density) for _ in range(k))
            for got, want in ((a.matvec(v), dense_matvec(a, v)),
                              (a.matmul(b).data, dense_matmul(a, b).data)):
                assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("field", [QQ, QT], ids=["QQ", "QT"])
def test_sparse_products_with_zero_rows_and_vectors(field):
    rng = random.Random(5)
    a = random_sparse(field, rng, 4, 4, 0.5)
    a.data[1] = [field.zero] * 4
    zero_vec = (field.zero,) * 4
    assert a.matvec(zero_vec) == zero_vec
    assert a.matvec((field.one,) * 4)[1] == field.zero
    zeros43 = Matrix(field, [[field.zero] * 3 for _ in range(4)])
    zeros24 = Matrix(field, [[field.zero] * 4 for _ in range(2)])
    assert a.matmul(zeros43) == zeros43
    assert zeros24.matmul(a) == zeros24
    ident = Matrix.identity(field, 4)
    assert a.matmul(ident) == a and ident.matmul(a) == a


def test_sparse_products_shape_mismatch():
    a = qm([[1, 0, 2], [0, 0, 3]])
    with pytest.raises(DimensionMismatch):
        a.matvec((rat(1), rat(2)))
    with pytest.raises(DimensionMismatch):
        a.matmul(qm([[1, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# RREF / rank / kernel
# ---------------------------------------------------------------------------

def test_rref_and_rank_trivial():
    m = qm([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(m)
    assert list(pivots) == [0, 1]


def test_kernel_dimension_plus_rank_equals_cols():
    rng = random.Random(7)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = qm([[rng.randint(-3, 3) for _ in range(cols)]
                for _ in range(rows)])
        ker = kernel_basis(m)
        assert len(rref(m)[1]) + len(ker) == cols
        for v in ker:
            assert vec_is_zero(QQ, m.matvec(v))


def in_span(field, basis, pivots, v):
    """Membership in the span of an RREF basis as Q v = 0, Q the remainder
    matrix of remainder_map."""
    return vec_is_zero(field, remainder_map(field, basis, pivots,
                                            len(v))[1](v))


def test_in_span():
    basis, pivots = span_rref(QQ, [(rat(1), rat(0), rat(1)),
                                   (rat(0), rat(1), rat(1))])
    assert in_span(QQ, basis, pivots, (rat(2), rat(3), rat(5)))
    assert not in_span(QQ, basis, pivots, (rat(0), rat(0), rat(1)))


def test_rref_and_in_span_agree_with_sympy_on_sparse_rows():
    # [DERIVED] zero-skipping row updates against sympy's rref and rank
    rng = random.Random(17)
    for density in (0.2, 0.4, 0.7):
        for _ in range(6):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            m = random_sparse(QQ, rng, rows, cols, density)
            red, pivots = rref(m)
            sred, spivots = to_sympy(m).rref()
            assert to_sympy(red) == sred and pivots == spivots
            basis, bpivots = span_rref(QQ, m.data)
            for _ in range(4):
                v = tuple(random_entry(QQ, rng, density) for _ in range(cols))
                if rng.random() < 0.5:
                    cs = [random_entry(QQ, rng, 0.6) for _ in m.data]
                    v = tuple(sum((c * row[k] for c, row in zip(cs, m.data)),
                                  QQ.zero) for k in range(cols))
                inside = (sympy.Matrix.vstack(to_sympy(m),
                                              to_sympy(Matrix(QQ, [v]))).rank()
                          == to_sympy(m).rank())
                assert in_span(QQ, basis, bpivots, v) == inside


def test_rref_over_function_field_with_zero_entries():
    # [DERIVED] rref of a sparse Q(t) matrix against sympy, entrywise
    t, c = QT.t, QT.of
    z = QT.zero
    m = Matrix(QT, [[z, c(1) / (t - 1), z, t],
                    [c(2) * t, z, z, c(1) / (t * t - 1)],
                    [c(2) * t, c(3) / (t - 1), z,
                     c(3) * t + c(1) / (t * t - 1)]])
    red, pivots = rref(m)
    ts = sympy.Symbol("t")

    def to_sym(x):
        def p(q):
            return sum(sympy.Rational(str(a)) * ts ** i
                       for i, a in enumerate(q.coeffs))
        return p(x.num) / p(x.den)

    sred, spivots = sympy.Matrix([[to_sym(x) for x in row]
                                  for row in m.data]).rref(simplify=True)
    assert pivots == spivots == (0, 1)
    for i in range(m.rows):
        for j in range(m.cols):
            assert sympy.cancel(to_sym(red.data[i][j]) - sred[i, j]) == 0


# ---------------------------------------------------------------------------
# determinant against sympy and closed forms
# ---------------------------------------------------------------------------

def test_determinant_known_values():
    assert determinant(qm([[1, 2], [3, 4]])) == rat(-2)
    assert determinant(qm([[0, 1], [1, 0]])) == rat(-1)  # needs a row swap
    assert determinant(qm([[1, 2], [2, 4]])) == rat(0)
    # two swaps, then one: the sign of the permutation
    assert determinant(qm([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == rat(1)
    assert determinant(qm([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == rat(-30)


def test_determinant_random_vs_sympy():
    # [DERIVED] sympy determinant as independent oracle
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = qm([[rat(rng.randint(-4, 4)) / rng.randint(1, 3)
                 for _ in range(n)] for _ in range(n)])
        assert str(determinant(m)) == str(to_sympy(m).det())


def test_determinant_symbolic():
    t = QT.t
    m = Matrix(QT, [[t, QT.one], [QT.one, t]])
    assert determinant(m) == t * t - 1


# ---------------------------------------------------------------------------
# determinant against the fraction-free (Bareiss) loop
# ---------------------------------------------------------------------------

def determinant_reference(m):
    """Bareiss elimination: each entry is a minor of the input, every
    division exact; a row swap flips the sign."""
    field = m.field
    n = m.rows
    if n == 0:
        return field.one
    a = [list(row) for row in m.data]
    sign = 1
    prev = field.one
    for k in range(n - 1):
        if field.is_zero(a[k][k]):
            pr = next((i for i in range(k + 1, n)
                       if not field.is_zero(a[i][k])), None)
            if pr is None:
                return field.zero
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - aik * a[k][j]) / prev
            a[i][k] = field.zero
        prev = pivot
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def _square_case(field, rng, n, kind):
    """A random n x n matrix; "singular" makes one row a multiple of
    another, "swap" zeroes the top-left entry so that elimination must
    swap rows, and "zero-column" zeroes one column."""
    m = [[random_entry(field, rng, 0.8) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n > 1:
        a, b = rng.sample(range(n), 2)
        c = field.of(rng.randint(-3, 3))
        m[a] = [x * c for x in m[b]]
    elif kind == "swap" and n > 1:
        m[0][0] = field.zero
        m[rng.randrange(1, n)][0] = field.of(rng.randint(1, 5))
    elif kind == "zero-column" and n:
        col = rng.randrange(n)
        for row in m:
            row[col] = field.zero
    return Matrix(field, m)


@pytest.mark.parametrize("field,sizes,trials", [(QQ, 7, 160), (QT, 5, 24)],
                         ids=["QQ", "QT"])
def test_determinant_equals_bareiss_reference(field, sizes, trials):
    rng = random.Random(f"determinant-reference/{field!r}")
    kinds = ("random", "singular", "swap", "zero-column")
    seen = set()
    for trial in range(trials):
        kind = kinds[trial % len(kinds)]
        m = _square_case(field, rng, rng.randrange(sizes), kind)
        det = determinant(m)
        ref = determinant_reference(m)
        assert det == ref and repr(det) == repr(ref)
        seen.add((kind, field.is_zero(det)))
    # nonsingular matrices that need a row swap, and singular ones of
    # each kind
    assert {("swap", False), ("singular", True),
            ("zero-column", True)} <= seen


def test_determinant_of_m4a_gram_equals_bareiss_reference(m4a):
    gram = m4a.form.gram
    assert determinant(gram) == determinant_reference(gram)


# ---------------------------------------------------------------------------
# The integer kernel against the field loop and sympy
# ---------------------------------------------------------------------------

T_SYM = sympy.Symbol("t")
QT_SYM = sympy.QQ.frac_field(T_SYM)


def _same(got, want):
    """Equal, and equal in repr: the same canonical scalars."""
    assert got == want
    assert repr(got) == repr(want)


def assert_equals_field_loop(m):
    """rref and its pivots, kernel_basis, span_rref and (when square) the
    determinant equal those of tests/elimination_reference.py."""
    red, pivots = rref(m)
    ref_red, ref_pivots = elimination_reference.rref(m)
    _same((red.data, pivots), (ref_red.data, ref_pivots))
    _same(kernel_basis(m), elimination_reference.kernel_basis(m))
    basis, bpivots = span_rref(m.field, m.data)
    ref_basis, ref_bpivots = elimination_reference.span_rref(m.field, m.data)
    _same((basis.data, bpivots), (ref_basis.data, ref_bpivots))
    if m.rows == m.cols:
        _same(determinant(m), elimination_reference.determinant(m))


def _to_domain(field, x):
    """x in sympy's QQ or QQ(t)."""
    if field is QQ:
        return sympy.QQ(x.numerator, x.denominator)

    def p(q):
        return sum(sympy.Rational(str(a)) * T_SYM ** i
                   for i, a in enumerate(q.coeffs))
    return QT_SYM.from_sympy(p(x.num) / p(x.den))


def assert_equals_sympy(m):
    """rref, pivots, kernel and determinant against sympy's DomainMatrix
    over QQ or QQ(t); the kernel is read off sympy's RREF, one vector per
    free column."""
    field = m.field
    dom = sympy.QQ if field is QQ else QT_SYM
    dm = DomainMatrix([[_to_domain(field, x) for x in row] for row in m.data],
                      (m.rows, m.cols), dom)
    sred, spivots = dm.rref()
    sred = sred.to_list()
    red, pivots = rref(m)
    assert pivots == spivots
    assert [[_to_domain(field, x) for x in row] for row in red.data] == sred
    free = [c for c in range(m.cols) if c not in spivots]
    kernel = [[_to_domain(field, x) for x in v] for v in kernel_basis(m)]
    expected = []
    for fc in free:
        v = [dom.zero] * m.cols
        v[fc] = dom.one
        for r, pc in enumerate(spivots):
            v[pc] = -sred[r][fc]
        expected.append(v)
    assert kernel == expected
    if m.rows == m.cols:
        assert _to_domain(field, determinant(m)) == dm.det()


def _kernel_entry(field, rng):
    """A nonzero entry: p/q with 0 < |p| <= 9 and q <= 5 over Q; over Q(t)
    a quadratic with a nonzero constant term over 1, a constant, t + c,
    (t - c)^2 or t^2 + 1."""
    if field is QQ:
        return rat(f"{rng.choice((-1, 1)) * rng.randint(1, 9)}"
                   f"/{rng.randint(1, 5)}")
    t, c = QT.t, QT.of
    num = (c(rng.randint(-4, 4)) * t * t + c(rng.randint(-4, 4)) * t
           + c(rng.choice((-3, -1, 1, 2))))
    den = rng.choice((QT.one, c(rng.randint(2, 7)), t + c(rng.randint(1, 3)),
                      (t - c(rng.randint(1, 2))) ** 2, t * t + QT.one))
    return num / den


def _kernel_case(field, rng, rows, cols, kind, density):
    """A random rows x cols matrix.  "rank-deficient": every row a
    combination of the first max(1, min(rows, cols) // 2) rows; "zero-row"
    and "zero-column" zero one row or column; "swap": entry (0, 0) is zero
    and each entry (i, i + 1 mod cols) is not, so the first pivot of a
    square matrix needs a row swap."""
    m = [[_kernel_entry(field, rng) if rng.random() < density else field.zero
          for _ in range(cols)] for _ in range(rows)]
    if kind == "rank-deficient" and rows and cols:
        base = m[:max(1, min(rows, cols) // 2)]
        combos = [[field.of(rng.randint(-2, 2)) for _ in base]
                  for _ in range(rows)]
        m = [[sum((k * b[j] for k, b in zip(ks, base)), field.zero)
              for j in range(cols)] for ks in combos]
    elif kind == "zero-row" and rows:
        m[rng.randrange(rows)] = [field.zero] * cols
    elif kind == "zero-column" and cols:
        j = rng.randrange(cols)
        for row in m:
            row[j] = field.zero
    elif kind == "swap" and rows > 1 and cols:
        for i, row in enumerate(m):
            row[(i + 1) % cols] = _kernel_entry(field, rng)
        m[0][0] = field.zero
    return Matrix(field, m)


KERNEL_KINDS = ("random", "rank-deficient", "zero-row", "zero-column", "swap")
SMALL_SHAPES = ((6, 6), (4, 7), (7, 4), (1, 1), (1, 3), (3, 1), (2, 0),
                (0, 0))
# (field, density, shapes): over Q(t) the field loop takes seconds on a
# denser or a wide 20-column matrix
KERNEL_CASES = ((QQ, 0.7, ((20, 12), (12, 20)) + SMALL_SHAPES),
                (QT, 0.15, ((20, 12), (6, 10)) + SMALL_SHAPES))


@pytest.mark.parametrize("field,density,shapes", KERNEL_CASES,
                         ids=["QQ", "QT"])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_elimination_equals_field_loop(field, density, shapes, kind):
    rng = random.Random(f"elimination/{field!r}/{kind}")
    for rows, cols in shapes:
        assert_equals_field_loop(
            _kernel_case(field, rng, rows, cols, kind, density))


@pytest.mark.parametrize("field,shapes", [
    (QQ, ((20, 12), (12, 20)) + SMALL_SHAPES),
    (QT, ((5, 4), (4, 5), (4, 4), (3, 3), (1, 2), (2, 0), (0, 0))),
], ids=["QQ", "QT"])
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_elimination_equals_sympy(field, shapes, kind):
    # [DERIVED] sympy's DomainMatrix over QQ and QQ(t) as the oracle
    rng = random.Random(f"elimination-sympy/{field!r}/{kind}")
    for rows, cols in shapes:
        assert_equals_sympy(_kernel_case(field, rng, rows, cols, kind, 0.6))


def test_elimination_covers_its_cases():
    # the cases above include full-rank and rank-deficient matrices, and
    # nonsingular square ones whose first pivot needs a row swap
    seen = set()
    for field, density, shapes in KERNEL_CASES:
        for kind in KERNEL_KINDS:
            rng = random.Random(f"elimination/{field!r}/{kind}")
            for rows, cols in shapes:
                m = _kernel_case(field, rng, rows, cols, kind, density)
                rank = len(rref(m)[1])
                seen.add((kind, rank == min(rows, cols)))
                if kind == "swap" and rows == cols and rank == rows > 1:
                    seen.add(("nonsingular swap", field))
    assert {("random", True), ("rank-deficient", False),
            ("zero-row", False), ("swap", True), ("nonsingular swap", QQ),
            ("nonsingular swap", QT)} <= seen


def _monomial_permutation(coeffs, exponents, perm):
    """The Q(t) matrix with coeffs[i] * t^exponents[i] at (i, perm[i]) and
    zero elsewhere."""
    n = len(coeffs)
    return Matrix(QT, [[QT.of(coeffs[i]) * QT.t ** exponents[i]
                        if j == perm[i] else QT.zero
                        for j in range(n)] for i in range(n)])


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 100])
def test_minors_at_the_bound_unpack_exactly(k):
    # B is the product of the min(rows, cols) largest row norms
    # max(1, sum_j ||m_ij||_1), here of every row.  A monomial permutation
    # matrix has one nonzero entry a_i t^e_i per row, so B = prod |a_i|, and
    # its determinant's one coefficient is +-B: unpacking it needs every digit
    # of T = 2^(bitlen(B) + 1).  The row (1, a t^e) has B = 1 + |a|, and
    # its RREF entry a t^e has a coefficient next to B.
    t = QT.t
    perm = (2, 0, 3, 1)
    for coeffs in ((2 ** k, 2 ** k, 2 ** k, 2 ** k),
                   (2 ** k - 1, 2 ** k + 1, 3, 2 ** k),
                   (-(2 ** k), 2 ** k - 1, -(2 ** k + 1), 5 ** k)):
        for exps in ((0, 0, 0, 0), (1, 2, 0, 3)):
            m = _monomial_permutation(coeffs, exps, perm)
            expected = QT.of(_perm_sign(perm) * coeffs[0] * coeffs[1]
                             * coeffs[2] * coeffs[3]) * t ** sum(exps)
            _same(determinant(m), expected)
            assert_equals_field_loop(m)
    for a in (2 ** k, 2 ** k - 1, -(2 ** k), -(2 ** k + 1)):
        for e in (0, 1, 4):
            entry = QT.of(a) * t ** e
            m = Matrix(QT, [[QT.one, entry]])
            _same(rref(m), (Matrix(QT, [[QT.one, entry]]), (0,)))
            _same(kernel_basis(m), [(-entry, QT.one)])
            assert_equals_field_loop(m)
            assert_equals_field_loop(Matrix(QT, [[entry, QT.one],
                                                 [QT.one, QT.zero]]))


@pytest.mark.parametrize("k", [1, 2, 7, 8, 31, 32, 33, 64])
def test_tall_minor_at_the_bound_unpacks_exactly(k):
    # B is the product of the min(rows, cols) largest row norms.  Over the
    # rows (1, 0, c t^e) and (0, b, 0), with c = +-2^k and b = 2^3, sit
    # rows of norm at most 1, so B = (1 + 2^k) b.  The RREF entry c t^e is
    # x/p with p = b and x = b c t^e, whose one coefficient, +-2^(k + 3),
    # has the bit length of B: unpacking it needs every digit of T.
    t, z, o = QT.t, QT.zero, QT.one
    b = QT.of(8)
    for c in (QT.of(2 ** k), QT.of(-(2 ** k))):
        for e in (0, 2):
            top = [[o, z, c * t ** e], [z, b, z]]
            m = Matrix(QT, top + [[z, o, z], [z, -o, z], [z, z, z], [z, z, z]])
            red = [[o, z, c * t ** e], [z, o, z]] + [[z, z, z]] * 4
            _same(rref(m), (Matrix(QT, red), (0, 1)))
            _same(kernel_basis(m), [(-c * t ** e, z, o)])
            assert_equals_field_loop(m)
            # rows past the third leave T as it is, however large
            m = Matrix(QT, top + [[QT.of(5), z, QT.of(5) * c * t ** e]] * 3)
            norms = sorted((5 * (1 + 2 ** k),) * 3 + (1 + 2 ** k, 8))
            assert linalg._eliminate(m)[4] == _past(prod(norms[-3:]))
            assert_equals_field_loop(m)


@pytest.mark.parametrize("k", [8, 33, 64])
def test_row_scales_larger_than_the_rows_unpack_in_the_determinant(k):
    # Row i is (small integers) / (t + a_i) with |a_i| about 2^k, so its
    # scale s_i = t + a_i has a larger l1 norm than its numerators.  The
    # determinant unpacks prod s_i, whose constant term is prod a_i: only
    # a bound that counts ||s_i||_1 in the row norm puts T past it.
    t, c = QT.t, QT.of
    cs = [[1, 1, 0, 2], [0, 1, 1, -1], [1, 0, 1, 3], [2, -1, 0, 1]]
    for n in (2, 3, 4):
        dens = [t + c((-1) ** i * 2 ** k + i) for i in range(n)]
        nonsingular = [[c(x) / d for x in row[:n]]
                       for row, d in zip(cs, dens)]
        # the last row a multiple of the sum of the others, over its own
        # denominator
        total = [sum(col, QT.zero) for col in zip(*nonsingular[:-1])]
        singular = nonsingular[:-1] + [[x * dens[0] / dens[-1]
                                        for x in total]]
        for rows in (nonsingular, singular):
            m = Matrix(QT, rows)
            assert_equals_sympy(m)
            assert_equals_field_loop(m)
        det = sympy.Matrix([row[:n] for row in cs[:n]]).det()
        assert det != 0
        assert determinant(Matrix(QT, nonsingular)) == c(int(det)) / prod(
            dens, start=QT.one)
        assert determinant(Matrix(QT, singular)) == QT.zero


def _over_half(rows):
    """The Q(t) matrix whose row i is nums_i / (t - 1/2)^e_i for the pairs
    (nums_i, e_i) of rows, each numerator an ascending tuple of integer
    coefficients."""
    t, c = QT.t, QT.of
    return Matrix(QT, [[sum((c(a) * t ** k for k, a in enumerate(x)),
                            QT.zero) / (t - c("1/2")) ** e for x in nums]
                       for nums, e in rows])


def test_row_scales_with_fractional_coefficients_against_sympy():
    # [DERIVED] sympy's DomainMatrix as the oracle.  A row over t - 1/2 is
    # cleared by the monic scale t - 1/2, whose coefficients are not
    # integers: its numerators and its scale are scaled by one integer,
    # the content 2, or the determinant, which unpacks the scales, is off
    # by that factor
    t, c = QT.t, QT.of
    cases = [[(((1,), (3,)), 1), (((3,), (0, 1)), e)] for e in (0, 1)]
    cases.append([(((1,), (3,)), 2), (((3,), (0, 1)), 1)])
    for rows in cases:
        assert_equals_sympy(_over_half(rows))
    assert determinant(_over_half(cases[0])) == (t - c(9)) / (t - c("1/2"))
    # kernels: a 2 x 3 matrix, and a singular 3 x 3 one whose last row is
    # the first plus twice the second
    first, second = ((1,), (3,), (0, 1)), ((3,), (0, 1), (1,))
    wide = _over_half([(first, 1), (second, 1)])
    singular = _over_half([(first, 1), (second, 1),
                           (((7,), (3, 2), (2, 1)), 1)])
    for m in (wide, singular):
        assert_equals_sympy(m)
        assert len(kernel_basis(m)) == 1
    assert determinant(singular) == QT.zero


def _record_eliminations(monkeypatch):
    """The list that every matrix linalg eliminates is appended to."""
    seen = []
    eliminate = linalg._eliminate

    def recording(m):
        seen.append(m)
        return eliminate(m)
    monkeypatch.setattr(linalg, "_eliminate", recording)
    return seen


@pytest.mark.parametrize("verbs", [
    lambda: (cert.verify_m4a(), cert.v4a_certify(), cert.gram_report()),
    lambda: (cert.definiteness_report(("0", "1/6", "9/4", "7/1000000007")),
             cert.quotient_certify("1/6"), cert.verify_m4b(),
             cert.verify_dihedral("6A")),
], ids=["m4a-verbs", "point-verbs"])
def test_every_matrix_the_verbs_eliminate_equals_field_loop(monkeypatch,
                                                            verbs):
    seen = _record_eliminations(monkeypatch)
    verbs()
    assert seen
    monkeypatch.undo()
    for m in seen:
        assert_equals_field_loop(m)


# ---------------------------------------------------------------------------
# LDLT
# ---------------------------------------------------------------------------

def _random_symmetric(rng, n, psd=False):
    a = qm([[rat(rng.randint(-3, 3)) / rng.randint(1, 2)
             for _ in range(n)] for _ in range(n)])
    if psd:
        return a.transpose().matmul(a)      # A^T A is PSD by construction
    return Matrix(QQ, [[a.data[min(i, j)][max(i, j)] for j in range(n)]
                       for i in range(n)])


def test_ldlt_reconstruction_and_verdict_vs_sympy():
    # [DERIVED] sympy's is_positive_semidefinite as independent oracle;
    # reconstruction L D L^T == M must be exact whenever COMPLETE.
    rng = random.Random(20260823)
    completed = failed = 0
    for trial in range(20):
        m = _random_symmetric(rng, 6, psd=(trial % 2 == 0))
        result = ldlt(m)
        oracle_psd = bool(to_sympy(m).is_positive_semidefinite)
        if result.status == LDLTResult.COMPLETE:
            completed += 1
            assert reconstruct_ldlt(result) == m
            assert result.is_psd() == oracle_psd
            # determinant equals the product of the diagonal
            prod = QQ.one
            for d in result.D:
                prod = prod * d
            assert prod == determinant(m)
        else:
            failed += 1
            # FAILED_INDEFINITE is itself a non-PSD certificate
            assert not oracle_psd
    assert completed > 0  # the PSD constructions must complete


def test_ldlt_semidefinite_zero_pivot_skip():
    # rank-1 PSD matrix with an exactly zero pivot in natural order
    m = qm([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    result = ldlt(m)
    assert result.status == LDLTResult.COMPLETE
    assert result.D == [rat(1), rat(0), rat(1)]
    assert result.is_psd() and not result.is_pd()


def test_ldlt_indefinite_zero_pivot():
    m = qm([[0, 1], [1, 0]])
    result = ldlt(m)
    assert result.status == LDLTResult.FAILED_INDEFINITE
    assert result.certificate == (1, 0)
    assert not result.is_psd()


def test_ldlt_symbolic_zero_pivot_fails_indefinite():
    # the same failure channel as over Q: a status, not an exception
    t = QT.t
    result = ldlt(Matrix(QT, [[QT.zero, t], [t, QT.zero]]))
    assert result.status == LDLTResult.FAILED_INDEFINITE
    assert result.certificate == (1, 0)
    assert result.D == []


def test_ldlt_no_sign_verdict_over_function_field():
    t = QT.t
    result = ldlt(Matrix(QT, [[t, QT.zero], [QT.zero, t]]))
    assert result.status == LDLTResult.COMPLETE
    with pytest.raises(TypeError):
        result.is_psd()


def test_ldlt_abort_carries_pivots_so_far():
    t = QT.t
    result = ldlt(Matrix(QT, [[t, QT.zero, QT.zero], [QT.zero, QT.zero, t],
                              [QT.zero, t, QT.zero]]))
    assert result.status == LDLTResult.FAILED_INDEFINITE
    assert result.certificate == (2, 1)
    assert result.D == [t]


# ---------------------------------------------------------------------------
# Signs of the pivots over Q(t) at a point
# ---------------------------------------------------------------------------

def test_pivot_signs_of_a_polynomial_factorisation():
    # [[1, t], [t, 1]] = L diag(1, 1 - t^2) L^T with L = [[1, 0], [t, 1]]:
    # no pole, so every point is read
    t = QT.t
    m = Matrix(QT, [[QT.one, t], [t, QT.one]])
    result = ldlt(m)
    assert result.m is m
    assert (result.status, result.D, result.poles) == (
        LDLTResult.COMPLETE, [QT.one, 1 - t * t], ())
    assert result.signs("0") == (1, 1)
    assert result.signs("-1") == (1, 0)
    assert result.signs(rat("3/2")) == (1, -1)


def test_pivot_signs_is_none_at_a_pole_and_after_a_failed_ldlt():
    # [[t, 1], [1, 0]] has D = (t, -1/t) and L[1][0] = 1/t: its pole is 0
    t = QT.t
    result = ldlt(Matrix(QT, [[t, QT.one], [QT.one, QT.zero]]))
    assert [str(p) for p in result.poles] == ["t"]
    assert result.signs("0") is None
    assert result.signs("1/2") == (1, -1)
    assert result.signs("-1/2") == (-1, 1)
    # [[t^2, t], [t, 0]] has D = (t^2, -1) and L[1][0] = 1/t: at 0 the
    # matrix is zero, so PSD with nullity 2, while D(0) reads (0, -1);
    # the pole of L alone must stop the reading
    result = ldlt(Matrix(QT, [[t * t, t], [t, QT.zero]]))
    assert result.D == [t * t, -QT.one]
    assert [str(p) for p in result.poles] == ["t"]
    assert result.signs("0") is None
    assert result.signs("1") == (1, -1)
    failed = ldlt(Matrix(QT, [[QT.zero, t], [t, QT.zero]]))
    assert failed.status == LDLTResult.FAILED_INDEFINITE
    assert failed.signs("1") is None
    assert failed.signs() is None
    # over Q the signs are read with no point, and None after a failure
    assert ldlt(qm([[2, 1], [1, 0]])).signs() == (1, -1)
    assert ldlt(qm([[0, 1], [1, 0]])).signs() is None


def test_pivot_signs_refuses_a_float():
    result = ldlt(Matrix(QT, [[QT.one]]))
    with pytest.raises(TypeError, match="float"):
        result.signs(0.5)
    with pytest.raises(TypeError, match="no sign on Q"):
        result.signs()


def _random_symbolic_symmetric(rng, n):
    """A symmetric n x n matrix over Q(t) with entries c0 + c1 t, small
    integer c0 and c1."""
    t = QT.t
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = (QT.of(rng.randint(-3, 3))
                                       + QT.of(rng.randint(-3, 3)) * t)
    return Matrix(QT, rows)


def test_pivot_signs_give_the_inertia_sympy_finds():
    # [DERIVED] at each point that is no pole, the signs decide positive
    # (semi)definiteness and the rank of the matrix there as sympy does
    rng = random.Random(20261020)
    read = 0
    for _ in range(12):
        m = _random_symbolic_symmetric(rng, 4)
        result = ldlt(m)
        for t0 in ("-2", "-1/3", "0", "1/5", "7/4"):
            signs = result.signs(t0)
            if signs is None:
                continue
            read += 1
            at = to_sympy(m.at(t0))
            assert all(s > 0 for s in signs) == at.is_positive_definite
            assert (all(s >= 0 for s in signs)
                    == at.is_positive_semidefinite)
            assert signs.count(0) == 4 - at.rank()
    assert read >= 20



# ---------------------------------------------------------------------------
# LDLT against the loop without field.sub_dot
# ---------------------------------------------------------------------------

def ldlt_reference(m):
    """(L, D, status, certificate) from the left-looking loop with each
    Schur-complement entry in plain field arithmetic, stopping at the first
    nonzero entry below a zero pivot."""
    field = m.field
    n = m.rows
    z = field.zero
    is_zero = field.is_zero
    lrows = [[] for _ in range(n)]
    active = []
    D = []
    for j in range(n):
        lj = lrows[j]
        dl = [lj[k] * D[active[k]] for k in range(len(lj))]
        dj = m.data[j][j] - sum((a * b for a, b in zip(lj, dl)), z)
        if is_zero(dj):
            for i in range(j + 1, n):
                li = lrows[i]
                cij = m.data[i][j] - sum((a * b for a, b in zip(li, dl)), z)
                if not is_zero(cij):
                    return (_expand_l(field, lrows, active, n), D,
                            LDLTResult.FAILED_INDEFINITE, (i, j))
            D.append(z)
            continue
        D.append(dj)
        for i in range(j + 1, n):
            li = lrows[i]
            cij = m.data[i][j] - sum((a * b for a, b in zip(li, dl)), z)
            li.append(cij / dj)
        active.append(j)
    return _expand_l(field, lrows, active, n), D, LDLTResult.COMPLETE, None


def _random_ldl(rng, field, n, height):
    """L diag(D) L^T for a random sparse unit lower L and a D with zeros
    and entries of both signs, so natural-order LDLT skips zero pivots;
    half the time one entry below a zero pivot is then disturbed, which
    makes the matrix indefinite."""
    def entry():
        if rng.random() < 0.4:
            return field.zero
        if field is QT:
            return random_entry(field, rng, 1.0)
        return rat(rng.randint(-height, height)) / rng.randint(1, height)
    L = [[field.one if i == j else entry() if j < i else field.zero
          for j in range(n)] for i in range(n)]
    d = [field.zero if rng.random() < 0.3 else entry() for _ in range(n)]
    m = [[sum((L[i][k] * d[k] * L[j][k] for k in range(n)), field.zero)
          for j in range(n)] for i in range(n)]
    zeros = [j for j in range(n - 1) if field.is_zero(d[j])]
    if zeros and rng.random() < 0.5:
        j = rng.choice(zeros)
        i = rng.randrange(j + 1, n)
        m[i][j] = m[j][i] = m[i][j] + field.one
    return Matrix(field, m)


@pytest.mark.parametrize("field,height,trials",
                         [(QQ, 9, 120), (QQ, 10 ** 12, 60), (QT, 0, 15)],
                         ids=["QQ-small", "QQ-tall", "QT"])
def test_ldlt_equals_reference_loop(field, height, trials):
    rng = random.Random(f"ldlt-reference/{height}")
    seen = set()
    for _ in range(trials):
        m = _random_ldl(rng, field, rng.randint(1, 7), height)
        result = ldlt(m)
        L, D, status, certificate = ldlt_reference(m)
        assert result.L == L and result.D == D
        assert [repr(x) for x in result.D] == [repr(x) for x in D]
        assert (result.status, result.certificate) == (status, certificate)
        seen.add((status, any(field.is_zero(x) for x in D)))
    # complete runs that skip a zero pivot, and indefinite exits
    assert (LDLTResult.COMPLETE, True) in seen
    assert any(s == LDLTResult.FAILED_INDEFINITE for s, _ in seen)
