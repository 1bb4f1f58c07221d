"""Axial-algebra engine: structure-constant algebras, eigenspace
decompositions, fusion/Frobenius verification, Miyamoto involutions from
the eigenspace projectors of the adjoint, subalgebra closures with
their tables, ideals, radicals, quotients, gradings.

Vectors are coordinate tuples over the algebra's scalar field.  Algebra
and BilinearForm take one product or form value per basis pair i <= j and
mirror it once, so an asymmetric table cannot be written down.

The fusion rule, automorphisms and the Frobenius identity are decided on
integers: the inputs are cleared to integer polynomials and each identity
is compared at one integer point (_at_point) past the bound K * M^m of
scalars._products_bound: the two sides differ by a sum of at most K
products of at most m cleared inputs, each of l1 norm at most M.
K = n^2 + n, m = 3 for is_automorphism; K = 2n, m = 2 for
verify_frobenius; and K = 2^s n^(s+2), m = 2s + 3 for verify_fusion,
s the most factors of its test.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (DimensionMismatch, NotAnIdeal, NotGraded,
                     NotIdempotent, NotSemisimple)
from .linalg import (Matrix, induced, kernel_basis, remainder_map, rref,
                     span_rref, symmetric, unit_vec, upper_pairs, vec_is_zero)
from .scalars import QQ, _at, _l1, _products_bound, rat


def _at_point(alg, parts, K, m):
    """(table, parts): the product table of alg and the parts as ints at
    one integer point T, past the bound K * M^m (_products_bound) on an
    identity that sums at most K products of at most m of them.

    Each part is a list of numerators under one scale, as field.clear
    returns them; table[i][j] lists (k, w) as alg.table_nums does.  The
    field asks for the bound only over Q(t): the table is then scaled
    once per algebra (Algebra.table_coeffs) and only evaluated at T here.
    Over Q the numerators are ints already: they come back as they are,
    no bound is computed and the table is table_nums, unread.
    """
    scaled = None

    def table_bound(coeffs):
        nonlocal scaled
        scaled, w = alg.table_coeffs
        return _products_bound(K, m, coeffs, w)
    parts, T = alg.field.at_point(parts, table_bound)
    if scaled is None:
        return alg.table_nums, parts
    return symmetric(alg.dim, lambda i, j: [(k, _at(c, T))
                                            for k, c in scaled[i, j]]), parts


def _rows(xs, n):
    """The n rows of the n x n matrix xs, flat in row-major order."""
    return [xs[r * n:(r + 1) * n] for r in range(n)]


def _mirrored(n, entries):
    """The n x n rows of a symmetric table given by its entries at the
    pairs (i, j), i <= j < n; ValueError for any other key set."""
    if set(entries) != set(upper_pairs(n)):
        raise ValueError(f"expected one entry per pair i <= j < {n}")
    return symmetric(n, lambda i, j: entries[i, j])


class Algebra:
    """Finite-dimensional commutative algebra: products[(i, j)], i <= j,
    is the coordinate vector of (basis i) * (basis j), and mul_table[i][j]
    holds it at (i, j) and (j, i)."""

    def __init__(self, field, labels, products):
        self.field = field
        self.labels = list(labels)
        self.dim = n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError(f"repeated basis labels in {self.labels}")
        products = {p: tuple(v) for p, v in products.items()}
        self.mul_table = _mirrored(n, products)
        if any(len(v) != n for v in products.values()):
            raise DimensionMismatch("product entry of wrong length")
        # table_nums[i][j]: the nonzero structure constants of
        # (basis i) * (basis j) as (k, numerator) over the one common
        # denominator table_den, cleared once per pair i <= j
        is_zero = field.is_zero
        nonzero = {p: [(k, w) for k, w in enumerate(products[p])
                       if not is_zero(w)] for p in upper_pairs(n)}
        nums, self.table_den = field.clear(
            [w for entry in nonzero.values() for _, w in entry])
        nums = iter(nums)
        cleared = {p: [(k, next(nums)) for k, _ in entry]
                   for p, entry in nonzero.items()}
        self.table_nums = symmetric(n, lambda i, j: cleared[i, j])

    @cached_property
    def table_coeffs(self):
        """(coeffs, w) over Q(t): coeffs[i, j], i <= j, lists (k, c) for
        each (k, w) of table_nums[i][j], with c the coefficient tuple of w
        scaled by the one integer that clears the whole table
        (field.scaled), and w the largest l1 norm of a c.  Made on first
        use, by the first identity _at_point decides on this algebra."""
        table, pairs = self.table_nums, upper_pairs(self.dim)
        flat = self.field.scaled(w for i, j in pairs for _, w in table[i][j])
        cs = iter(flat)
        return ({(i, j): [(k, next(cs)) for k, _ in table[i][j]]
                 for i, j in pairs}, max(map(_l1, flat), default=0))

    def at(self, t0):
        """This algebra over Q(t) at t = t0, over Q (field.at)."""
        at, table = self.field.at, self.mul_table
        return Algebra(QQ, self.labels, {(i, j): at(table[i][j], t0)
                                         for i, j in upper_pairs(self.dim)})

    def index(self, label):
        return self.labels.index(label)

    def basis_vector(self, label):
        return unit_vec(self.field, self.dim, self.index(label))

    def vector(self, combo):
        """Coordinate vector from {label: coefficient}."""
        v = [self.field.zero] * self.dim
        for label, c in combo.items():
            v[self.index(label)] = self.field.of(c)
        return tuple(v)

    def mul(self, u, v):
        """Bilinear extension of the product table.

        u, v and the table are each brought to one common denominator, the
        products are summed as numerators, and each output coordinate is
        normalised once.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector length != algebra dimension")
        field = self.field
        is_zero = field.is_zero
        iu = [i for i, x in enumerate(u) if not is_zero(x)]
        iv = [j for j, x in enumerate(v) if not is_zero(x)]
        nu, du = field.clear([u[i] for i in iu])
        nv, dv = field.clear([v[j] for j in iv])
        acc = [None] * self.dim
        table = self.table_nums
        for i, a in zip(iu, nu):
            row = table[i]
            for j, b in zip(iv, nv):
                c = a * b
                for k, w in row[j]:
                    s = acc[k]
                    acc[k] = c * w if s is None else s + c * w
        den = du * dv * self.table_den
        join, zero = field.join, field.zero
        return tuple(zero if s is None else join(s, den) for s in acc)

    def ad(self, a) -> Matrix:
        """Matrix of the adjoint x -> a*x (columns = images of basis)."""
        cols = [self.mul(a, unit_vec(self.field, self.dim, j))
                for j in range(self.dim)]
        return Matrix(self.field, [[cols[j][i] for j in range(self.dim)]
                                   for i in range(self.dim)])

    def is_idempotent(self, a):
        return self.mul(a, a) == tuple(a)

    def describe(self, v):
        """Human-readable linear combination of basis labels."""
        parts = []
        for c, label in zip(v, self.labels):
            if not self.field.is_zero(c):
                parts.append(f"({c})*{label}")
        return " + ".join(parts) if parts else "0"


class ConstructedAlgebra:
    """An algebra with its Frobenius form and its axes.

    axes[k] is the axis a_{axis_keys[k]}, by default a basis vector;
    symmetries maps names to generating symmetry operators, and
    reference_eigenvectors maps each eigenvalue to the published
    eigenvectors of one axis.  grades is set by graded_by_involutions.
    """

    def __init__(self, algebra, form, axis_keys, symmetries=None,
                 reference_eigenvectors=None, *, axes=None, grades=None):
        check_pairing(algebra, form)
        self.algebra = algebra
        self.form = form
        self.axis_keys = list(axis_keys)
        self.axes = (list(axes) if axes is not None else
                     [algebra.basis_vector(f"a_{k}") for k in self.axis_keys])
        self.symmetries = symmetries or {}
        self.reference_eigenvectors = reference_eigenvectors or {}
        self.grades = grades

    @property
    def n_axes(self):
        return len(self.axes)

    def at(self, t0):
        """This record over Q(t) at t = t0, over Q: algebra, form, axes and
        symmetries evaluated there (field.at); keys and grades kept."""
        t0 = rat(t0)
        at = self.algebra.field.at
        return ConstructedAlgebra(
            self.algebra.at(t0), self.form.at(t0), self.axis_keys,
            {name: g.at(t0) for name, g in self.symmetries.items()},
            axes=[tuple(at(a, t0)) for a in self.axes], grades=self.grades)


class BilinearForm:
    """Symmetric bilinear form: values[(i, j)], i <= j, is
    <basis i, basis j>, and gram is the full Gram matrix."""

    def __init__(self, field, values):
        self.field = field
        n = max(map(max, values), default=-1) + 1  # one past the last index
        self.gram = Matrix(field, _mirrored(n, values))

    def at(self, t0):
        """This form over Q(t) at t = t0, over Q (field.at)."""
        pairs = upper_pairs(self.gram.rows)
        gram = self.gram.data
        return BilinearForm(QQ, dict(zip(pairs, self.field.at(
            [gram[i][j] for i, j in pairs], t0))))

    def apply(self, u, v):
        """<u, v> = u . (G v)."""
        is_zero = self.field.is_zero
        return sum((a * b for a, b in zip(u, self.gram.matvec(v))
                    if not is_zero(a)), self.field.zero)


def check_pairing(alg: Algebra, form: BilinearForm):
    """DimensionMismatch unless the form's Gram matrix is alg.dim x
    alg.dim.  A BilinearForm takes its size from its largest index, so a
    form that lacks the last basis vector is silently smaller."""
    if form.gram.rows != alg.dim:
        raise DimensionMismatch(f"form of dimension {form.gram.rows} on an "
                                f"algebra of dimension {alg.dim}")


class FusionRule:
    """Symmetric map (eigenvalue pair) -> subset of eigenvalues."""

    def __init__(self, field, eigenvalues, table):
        self.eigenvalues = tuple(field.of(x) for x in eigenvalues)
        self.table = {}
        for (lam, mu), vals in table.items():
            lam, mu = field.of(lam), field.of(mu)
            vals = frozenset(field.of(v) for v in vals)
            if not vals <= set(self.eigenvalues):
                raise ValueError("fusion target outside eigenvalue set")
            self.table[(lam, mu)] = vals
            self.table[(mu, lam)] = vals
        for lam in self.eigenvalues:
            for mu in self.eigenvalues:
                if (lam, mu) not in self.table:
                    raise ValueError(f"fusion table missing ({lam}, {mu})")

    def __getitem__(self, pair):
        return self.table[pair]


class AxisDecomposition:
    """Eigenspace bases of ad_a for one idempotent a, keyed by eigenvalue;
    together they span the algebra.  ad is the matrix of ad_a itself, for
    the fusion check and the Miyamoto map.

    Each spaces[lam] is a basis of the full kernel ker(ad_a - lam), as
    axis_decomposition builds it.  verify_fusion relies on this: it tests
    u*v against the sum of the V_nu as prod_nu (ad_a - nu)(u*v) = 0, whose
    solutions are exactly the sum of those kernels.
    """

    def __init__(self, spaces, one, ad):
        self.spaces = {lam: [tuple(v) for v in vs]
                       for lam, vs in spaces.items()}
        self.one = one
        self.ad = ad

    @property
    def eigenvalues(self):
        return tuple(self.spaces)

    @property
    def dims(self):
        return tuple(len(vs) for vs in self.spaces.values())

    @property
    def is_primitive(self):
        """One-dimensional 1-eigenspace."""
        return len(self.spaces.get(self.one, ())) == 1


def _minus_scalar(m: Matrix, c) -> Matrix:
    """m - c I for a square matrix m."""
    return Matrix(m.field, [[x - c if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(m.data)])


def axis_decomposition(alg: Algebra, a, eigenvalues) -> AxisDecomposition:
    """Eigenspace decomposition of ad_a over the given eigenvalue set.

    Raises NotIdempotent / NotSemisimple when a is not an axis candidate.
    """
    field = alg.field
    a = tuple(field.of(x) for x in a)
    if not alg.is_idempotent(a):
        raise NotIdempotent(f"not idempotent: {alg.describe(a)}")
    ada = alg.ad(a)
    spaces = {lam: kernel_basis(_minus_scalar(ada, lam))
              for lam in dict.fromkeys(field.of(x) for x in eigenvalues)}
    dims = [len(vs) for vs in spaces.values()]
    if sum(dims) != alg.dim:
        raise NotSemisimple(
            f"eigenspace dims {dims} sum to {sum(dims)} != {alg.dim}")
    return AxisDecomposition(spaces, field.one, ada)


def verify_fusion(alg: Algebra, dec: AxisDecomposition, rule: FusionRule):
    """All eigenvector-pair products tested for fusion membership.

    Precondition: each dec.spaces[lam] is a basis of the full kernel
    ker(ad_a - lam), as axis_decomposition builds it.  For u in V_lam and
    v in V_mu, u*v then lies in the sum of the V_nu for nu in lam * mu iff
    q = prod_nu (ad_a - nu)(u*v) = 0, since ad_a is diagonalisable and the
    nu are distinct.

    The test runs on integers.  Every eigenvector, ad_a = A/d, the
    eigenvalues nu = n_nu/D over one denominator D and the table are
    cleared to integer polynomials, so q is, up to a nonzero scalar,
    prod_nu (D A - n_nu d I) applied to the integer product.  Expanded,
    a coordinate of the product sums n^2 terms u_i v_j W_ij,k, and each
    of at most s factors takes n entries, each at most two products of
    two inputs, so a coordinate of q sums at most 2^s n^(s+2) products of
    at most 2s + 3 inputs.  Everything is evaluated once at a T past the
    lemma's bound on that (_at_point), so q = 0 iff q(T) = 0.  Over Q
    every input is an integer and T plays no part.

    Returns a list of violation records (empty list = pass).
    """
    field = alg.field
    n = alg.dim
    evs = dec.eigenvalues
    vecs = [u for lam in evs for u in dec.spaces[lam]]
    ad, d = field.clear([x for row in dec.ad.data for x in row])
    nus, D = field.clear(evs)
    factors = {(lam, mu): tuple(nu for nu in evs if nu in rule[(lam, mu)])
               for i, lam in enumerate(evs) for mu in evs[i:]}
    s = max(map(len, factors.values()), default=0)
    table, ((*A, dT), (*nus, DT), *us) = _at_point(
        alg, [ad + [d], nus + [D]] + [field.clear(u)[0] for u in vecs],
        2 ** s * n ** (s + 2), 2 * s + 3)
    A, nus, us = _rows(A, n), dict(zip(evs, nus)), iter(us)
    at_vecs = {lam: [[(i, x) for i, x in enumerate(next(us)) if x]
                     for _ in dec.spaces[lam]] for lam in evs}

    def factor(nu):
        """D A - n_nu d I at T."""
        b = nus[nu] * dT
        return [[DT * x - (b if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(A)]

    products = {}

    def product(nus_s):
        """prod_nu (D A - n_nu d I) at T, as sparse rows."""
        if nus_s not in products:
            p = (factor(nus_s[0]) if nus_s else
                 [[int(i == j) for j in range(n)] for i in range(n)])
            for nu in nus_s[1:]:
                cols = list(zip(*p))
                p = [[sum(x * col[k] for k, x in enumerate(row) if x)
                      for col in cols] for row in factor(nu)]
            products[nus_s] = [[(k, x) for k, x in enumerate(row) if x]
                               for row in p]
        return products[nus_s]

    violations = []
    for (lam, mu), nus_s in factors.items():
        rows = product(nus_s)
        for u, uT in zip(dec.spaces[lam], at_vecs[lam]):
            for v, vT in zip(dec.spaces[mu], at_vecs[mu]):
                p = [0] * n
                for i, x in uT:
                    trow = table[i]
                    for j, y in vT:
                        c = x * y
                        for k, w in trow[j]:
                            p[k] += c * w
                if any(sum(x * p[k] for k, x in row) for row in rows):
                    allowed = rule[(lam, mu)]
                    violations.append({
                        "eigenvalues": (str(lam), str(mu)),
                        "u": alg.describe(u),
                        "v": alg.describe(v),
                        "product": alg.describe(alg.mul(u, v)),
                        "allowed": sorted(str(x) for x in allowed),
                    })
    return violations


def _form_sums(table, gram):
    """prods[i][k][r] = sum_c gram[r][c] w_c over the (c, w_c) listed in
    table[i][k]: for table and Gram numerators, the numerator of
    <e_r, e_i e_k>."""
    return symmetric(len(gram), lambda i, k: [
        sum(g[c] * w for c, w in table[i][k]) for g in gram])


def form_products(alg: Algebra, form: BilinearForm):
    """(prods, den): prods[i][k][r] is the numerator of <e_r, e_i e_k>
    over den = table_den * gram_den, from the numerators alg.table_nums
    and the Gram matrix cleared once over gram_den."""
    gnums, gden = alg.field.clear([x for row in form.gram.data for x in row])
    return (_form_sums(alg.table_nums, _rows(gnums, alg.dim)),
            alg.table_den * gden)


def verify_frobenius(alg: Algebra, form: BilinearForm):
    """Check <b_i, b_j b_k> = <b_i b_j, b_k> on all basis triples, as
    numerators of form_products over its one denominator;
    DimensionMismatch unless the Gram matrix is alg.dim x alg.dim.

    The numerators are compared as ints at one point (_at_point): the
    two sides sum_c G_ic W_jk,c of Gram and table numerators differ by a
    sum of 2n products of two.  A triple that differs there is recomputed
    exactly for its record.
    """
    check_pairing(alg, form)
    field, n = alg.field, alg.dim
    gnums, gden = field.clear([x for row in form.gram.data for x in row])
    table, (gram,) = _at_point(alg, [gnums], 2 * n, 2)
    prods = _form_sums(table, _rows(gram, n))

    def side(r, i, k):
        """<e_r, e_i e_k> in the field."""
        return str(field.join(sum(gnums[r * n + c] * w
                                  for c, w in alg.table_nums[i][k]),
                              alg.table_den * gden))
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(i, n):  # i <-> k symmetry of the identity
                if prods[j][k][i] != prods[i][j][k]:
                    violations.append({
                        "triple": (alg.labels[i], alg.labels[j], alg.labels[k]),
                        "lhs": side(i, j, k),
                        "rhs": side(k, i, j),
                    })
    return violations


def miyamoto(alg: Algebra, dec: AxisDecomposition, negative_eigenvalues,
             form: BilinearForm) -> Matrix:
    """The involution I - 2 sum_{lam in neg} P_lam, which negates the given
    eigenspaces of ad_a and fixes the rest; P_lam is the eigenspace
    projector prod_{kappa != lam} (ad_a - kappa) / (lam - kappa) over the
    decomposition's other eigenvalues kappa.

    Checked to be an involutive algebra automorphism and an isometry of
    the form; raises on violation.
    """
    field = alg.field
    neg = {field.of(x) for x in negative_eigenvalues}
    if not neg <= set(dec.eigenvalues):
        raise ValueError("negative eigenvalues outside the decomposition")
    ad = dec.ad
    n = alg.dim
    identity = Matrix.identity(field, n)
    T = identity.data
    for lam in neg:
        prod, scale = identity, field.one
        for kappa in dec.eigenvalues:
            if kappa != lam:
                prod = prod.matmul(_minus_scalar(ad, kappa))
                scale = scale * (lam - kappa)
        c = field.of(2) / scale
        T = [[x - c * p for x, p in zip(row, prow)]
             for row, prow in zip(T, prod.data)]
    T = Matrix(field, T)
    if T.matmul(T) != identity:
        raise ValueError("constructed Miyamoto map is not an involution")
    if not is_automorphism(alg, T, form):
        raise ValueError("constructed Miyamoto map fails is_automorphism")
    return T


def is_automorphism(alg: Algebra, T: Matrix, form: BilinearForm) -> bool:
    """True iff T maps every basis product e_i e_j to T e_i . T e_j and
    T^T G T == G for the Gram matrix G of the form; DimensionMismatch
    unless T and G are alg.dim x alg.dim.

    Decided on integers at one point (_at_point), by _symmetry_failure.
    """
    check_pairing(alg, form)
    field, n = alg.field, alg.dim
    if (T.rows, T.cols) != (n, n):
        raise DimensionMismatch(f"a {T.rows} x {T.cols} map on an algebra "
                                f"of dimension {n}")
    nums, d = field.clear([x for row in T.data for x in row])
    gnums = field.clear([x for row in form.gram.data for x in row])[0]
    table, ((*N, d), G) = _at_point(alg, [nums + [d], gnums], n * n + n, 3)
    return _symmetry_failure(table, [_rows(G, n)], N, d,
                             upper_pairs(n)) is None


def _symmetry_failure(table, forms, N, d, pairs):
    """The first pair (i, j) of pairs at which the map g = N/d breaks an
    identity, or None: d N W_ij = sum_ab N_ai N_bj W_ab, that is
    (e_i e_j)^g = e_i^g e_j^g, and d^2 F_ij = sum_ab N_ai N_bj F_ab, that
    is <e_i^g, e_j^g> = <e_i, e_j>, for each form F.  At each coordinate
    the two sides of either identity differ by a sum of at most n^2 + n
    products of three inputs: the counts its callers pass to the lemma
    (scalars._products_bound).  Everything is an
    int: N is n * n entries in row-major order, each F a list of rows,
    and table[i][j] lists (k, w) for the nonzero coordinates w of the
    table numerator W_ij, as Algebra.table_nums does.  Only the entries
    at pairs (a, b) with N_ai N_bj != 0 for some (i, j) of pairs are
    read.  A symmetry that relabels the basis up to sign has one nonzero
    per column of N, so each product is a few integer terms.
    """
    n = len(table)
    cols = [[(k, x) for k, x in enumerate(N[i::n]) if x] for i in range(n)]
    dd = d * d
    for i, j in pairs:
        lhs, rhs = [0] * n, [0] * n
        for c, w in table[i][j]:
            for k, x in cols[c]:
                lhs[k] += x * w
        for a, x in cols[i]:
            row = table[a]
            for b, y in cols[j]:
                xy = x * y
                for k, w in row[b]:
                    rhs[k] += xy * w
        if [d * s for s in lhs] != rhs:
            return i, j
        for F in forms:
            if (sum(x * y * F[a][b] for a, x in cols[i] for b, y in cols[j])
                    != dd * F[i][j]):
                return i, j
    return None


def subalgebra_closure(alg: Algebra, generators):
    """(basis, algebra, coords): the RREF basis of the smallest
    product-closed subspace containing the generators, grown by all its
    pairwise products until the rank stops growing; the subspace as an
    Algebra, its table the last round's products (in the span, as the
    rank held) read at the pivots; and coords, a vector's entries at the
    pivots (ValueError for a vector outside the subspace)."""
    field = alg.field
    m, pivots = span_rref(field, [tuple(g) for g in generators])
    while True:
        basis = [tuple(r) for r in m.data]
        prods = {(i, j): alg.mul(basis[i], basis[j])
                 for i, j in upper_pairs(len(basis))}
        grown = span_rref(field, basis + list(prods.values()))
        if len(grown[1]) == len(basis):
            break
        m, pivots = grown
    rest = remainder_map(field, m, pivots, alg.dim)[1]

    def coords(v):
        if not vec_is_zero(field, rest(v)):
            raise ValueError("vector outside the subalgebra")
        return tuple(v[p] for p in pivots)

    sub = Algebra(field, [f"s_{i}" for i in range(len(basis))],
                  {p: tuple(v[q] for q in pivots) for p, v in prods.items()})
    return basis, sub, coords


def radical(form: BilinearForm):
    """Kernel of the Gram matrix = radical of the Frobenius form."""
    return kernel_basis(form.gram)


def _absorbs(alg: Algebra, basis: Matrix):
    """True iff the span of an RREF basis absorbs products with the basis
    of the algebra: adding every e_i * r to its rows keeps its rank."""
    field, n = alg.field, alg.dim
    rows = [tuple(r) for r in basis.data]
    products = [alg.mul(unit_vec(field, n, i), r)
                for i in range(n) for r in rows]
    return len(span_rref(field, rows + products)[1]) == len(rows)


def quotient(alg: Algebra, form: BilinearForm, ideal):
    """Quotient algebra and induced form on a complement basis.

    The ideal must absorb products (NotAnIdeal otherwise).  The induced
    form is only well defined when the ideal lies in the form's kernel;
    that containment is checked here as well.  project is the remainder
    modulo the ideal read at the complement columns (remainder_map).
    """
    check_pairing(alg, form)
    field = alg.field
    ideal_m, pivots = span_rref(field, [tuple(v) for v in ideal])
    if not _absorbs(alg, ideal_m):
        raise NotAnIdeal("subspace does not absorb products")
    comp, project = remainder_map(field, ideal_m, pivots, alg.dim)
    pairs = upper_pairs(len(comp))
    qalg = Algebra(field, [alg.labels[j] for j in comp],
                   {(a, b): project(alg.mul_table[comp[a]][comp[b]])
                    for a, b in pairs})
    # induced form well-defined <=> ideal is in the kernel of the form
    if not all(vec_is_zero(field, form.gram.matvec(v)) for v in ideal_m.data):
        raise NotAnIdeal("ideal not contained in the form kernel; "
                         "induced form undefined")
    qform = BilinearForm(field, {(a, b): form.gram.data[comp[a]][comp[b]]
                                 for a, b in pairs})
    return qalg, qform, project


def verify_grading(rule: FusionRule, grading) -> bool:
    """True iff grading, a map eigenvalue -> element of an elementary
    abelian 2-group written as an int under bitwise xor, covers the
    rule's eigenvalues and grading[nu] == grading[lam] ^ grading[mu] for
    every nu in lam * mu."""
    evs = rule.eigenvalues
    return (all(lam in grading for lam in evs)
            and all(grading[nu] == grading[lam] ^ grading[mu]
                    for lam in evs for mu in evs for nu in rule[(lam, mu)]))


def check_graded(alg: Algebra, form: BilinearForm, grades):
    """NotGraded unless every product of basis vectors of grades g and h
    lies in grade g ^ h and every Gram entry between different grades is
    zero; grades[i], an int under xor as in verify_grading, is e_i's."""
    is_zero = alg.field.is_zero
    for i, j in upper_pairs(alg.dim):
        g = grades[i] ^ grades[j]
        if any(grades[k] != g and not is_zero(x)
               for k, x in enumerate(alg.mul_table[i][j])):
            raise NotGraded(f"the product e_{i} e_{j} leaves grade {g}")
        if g and not is_zero(form.gram.data[i][j]):
            raise NotGraded(f"Gram entry ({i}, {j}) joins grades "
                            f"{grades[i]} and {grades[j]}")


def graded_by_involutions(built: ConstructedAlgebra, involutions):
    """The record built, over Q(t), rebased on the joint eigenvectors of
    commuting involutions: the same record type and axis keys, with grades
    set to the grade of each new basis vector, an int under xor as in
    verify_grading.

    Grade g is the joint eigenspace on which involution b acts as -1 when
    bit b of g is set and as +1 otherwise; its basis is the kernel_basis
    of the involutions minus those scalars, stacked.  With S the matrix
    whose columns are the new basis, grade by grade, the new table is
    S^-1 (S e_i . S e_j), the new Gram matrix is S^T G S, each axis a
    becomes S^-1 a and each symmetry g becomes S^-1 g S, the map g induced
    on the new basis in the coordinates S^-1 reads off (linalg.induced).

    NotGraded unless there are alg.dim eigenvectors; S and the S^-1 read
    off the RREF of [S | I] are polynomial, so det S is a nonzero constant
    and S a basis at every t; check_graded passes; and every S^-1 g S is
    polynomial.  These are identities in Q(t), so they hold at every point
    where the record is evaluated (at).
    """
    alg, form = built.algebra, built.form
    field = alg.field
    n = alg.dim
    vectors, grades = [], []
    for g in range(1 << len(involutions)):
        stacked = []
        for b, tau in enumerate(involutions):
            stacked += _minus_scalar(tau, -field.one if g >> b & 1
                                     else field.one).data
        for v in kernel_basis(Matrix(field, stacked)):
            vectors.append(v)
            grades.append(g)
    if len(vectors) != n:
        raise NotGraded(f"{len(vectors)} joint eigenvectors in dimension {n}")
    S = Matrix(field, list(zip(*vectors)))
    red, pivots = rref(Matrix(field, [row + list(unit_vec(field, n, i))
                                      for i, row in enumerate(S.data)]))
    inverse = Matrix(field, [row[n:] for row in red.data])
    if pivots != tuple(range(n)) or any(
            x.den.degree for row in S.data + inverse.data for x in row):
        raise NotGraded("det S is not a nonzero constant")
    products = {(i, j): inverse.matvec(alg.mul(vectors[i], vectors[j]))
                for i, j in upper_pairs(n)}
    graded = Algebra(field, [f"g{g}_{k}" for k, g in enumerate(grades)],
                     products)
    gram = S.transpose().matmul(form.gram.matmul(S)).data
    graded_form = BilinearForm(field, {(i, j): gram[i][j]
                                       for i, j in upper_pairs(n)})
    check_graded(graded, graded_form, grades)
    conjugated = {name: induced(g, vectors, inverse.matvec)
                  for name, g in built.symmetries.items()}
    if any(x.den.degree for g in conjugated.values()
           for row in g.data for x in row):
        raise NotGraded("a symmetry is not polynomial on the graded basis")
    return ConstructedAlgebra(graded, graded_form, built.axis_keys,
                              conjugated, grades=grades,
                              axes=[inverse.matvec(a) for a in built.axes])
