"""Axial-algebra engine: structure-constant algebras, eigenspace
decompositions, fusion/Frobenius verification, Miyamoto involutions from
the eigenspace projectors of the adjoint, closures, ideals, radicals,
quotients, gradings.

Vectors are coordinate tuples over the algebra's scalar field.
"""

from __future__ import annotations

from .errors import (DimensionMismatch, NotAnIdeal, NotIdempotent,
                     NotSemisimple)
from .linalg import (Matrix, _reduce, in_span, kernel_basis, span_rref,
                     unit_vec, vec_is_zero)


class Algebra:
    """Finite-dimensional commutative algebra via a symmetric product table.

    mul_table[i][j] is the coordinate vector of (basis i) * (basis j).
    """

    def __init__(self, field, labels, mul_table):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise ValueError(f"repeated basis labels in {self.labels}")
        self.mul_table = [[tuple(mul_table[i][j]) for j in range(self.dim)]
                          for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(i):
                if self.mul_table[i][j] != self.mul_table[j][i]:
                    raise ValueError(
                        f"product table not symmetric at ({i}, {j})")
            for j in range(self.dim):
                if len(self.mul_table[i][j]) != self.dim:
                    raise DimensionMismatch("product entry of wrong length")
        # table_nums[i][j]: the nonzero structure constants of
        # (basis i) * (basis j) as (k, numerator) over the one common
        # denominator table_den
        is_zero = field.is_zero
        nonzero = [[[(k, w) for k, w in enumerate(entry) if not is_zero(w)]
                    for entry in row] for row in self.mul_table]
        nums, self.table_den = field.clear(
            [w for row in nonzero for entry in row for _, w in entry])
        nums = iter(nums)
        self.table_nums = [[[(k, next(nums)) for k, _ in entry]
                            for entry in row] for row in nonzero]

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

    axes[k] is the basis vector a_{axis_keys[k]}; symmetries maps names
    to generating symmetry operators, and reference_eigenvectors maps each
    eigenvalue to the published eigenvectors of one axis.
    """

    def __init__(self, algebra, form, axis_keys, symmetries=None,
                 reference_eigenvectors=None):
        self.algebra = algebra
        self.form = form
        self.axis_keys = list(axis_keys)
        self.axes = [algebra.basis_vector(f"a_{k}") for k in self.axis_keys]
        self.symmetries = symmetries or {}
        self.reference_eigenvectors = reference_eigenvectors or {}

    @property
    def n_axes(self):
        return len(self.axes)


class BilinearForm:
    """Symmetric bilinear form via its Gram matrix on the algebra basis."""

    def __init__(self, field, gram: Matrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix not symmetric")
        self.field = field
        self.gram = gram

    def apply(self, u, v):
        """<u, v> = u . (G v)."""
        is_zero = self.field.is_zero
        return sum((a * b for a, b in zip(u, self.gram.matvec(v))
                    if not is_zero(a)), self.field.zero)


class FusionRule:
    """Symmetric map (eigenvalue pair) -> subset of eigenvalues."""

    def __init__(self, field, eigenvalues, table):
        self.field = field
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
        lam, mu = pair
        return self.table[(self.field.of(lam), self.field.of(mu))]


class AxisDecomposition:
    """Eigenspace bases of ad_a for one idempotent a, keyed by eigenvalue;
    together they span the algebra."""

    def __init__(self, axis, spaces, one):
        self.axis = tuple(axis)
        self.spaces = {lam: [tuple(v) for v in vs]
                       for lam, vs in spaces.items()}
        self.one = one

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
    return AxisDecomposition(a, spaces, field.one)


def verify_fusion(alg: Algebra, dec: AxisDecomposition, rule: FusionRule):
    """All eigenvector-pair products tested for fusion membership.

    Returns a list of violation records (empty list = pass).
    """
    field = alg.field
    violations = []
    span_cache = {}

    def target_span(vals):
        key = frozenset(vals)
        if key not in span_cache:
            vecs = []
            for nu in dec.eigenvalues:
                if nu in key:
                    vecs.extend(dec.spaces[nu])
            span_cache[key] = span_rref(field, vecs)
        return span_cache[key]

    evs = dec.eigenvalues
    for i, lam in enumerate(evs):
        for mu in evs[i:]:
            allowed = rule[(lam, mu)]
            basis_m, pivots = target_span(allowed)
            for u in dec.spaces[lam]:
                for v in dec.spaces[mu]:
                    p = alg.mul(u, v)
                    if vec_is_zero(field, p):
                        continue
                    if not in_span(field, basis_m, pivots, p):
                        violations.append({
                            "eigenvalues": (str(lam), str(mu)),
                            "u": alg.describe(u),
                            "v": alg.describe(v),
                            "product": alg.describe(p),
                            "allowed": sorted(str(x) for x in allowed),
                        })
    return violations


def form_products(alg: Algebra, form: BilinearForm):
    """(prods, den): prods[i][k][r] is the numerator of <e_r, e_i e_k>
    over den = table_den * gram_den, from the numerators alg.table_nums
    and the Gram matrix cleared once over gram_den."""
    n = alg.dim
    table = alg.table_nums
    gnums, gden = alg.field.clear([x for row in form.gram.data for x in row])
    gram = [gnums[r * n:(r + 1) * n] for r in range(n)]
    prods = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(i, n):
            prod = table[i][k]
            prods[i][k] = prods[k][i] = [sum(g[c] * w for c, w in prod)
                                         for g in gram]
    return prods, alg.table_den * gden


def verify_frobenius(alg: Algebra, form: BilinearForm):
    """Check <b_i, b_j b_k> = <b_i b_j, b_k> on all basis triples, as
    numerators of form_products over its one denominator."""
    prods, den = form_products(alg, form)
    n = alg.dim
    violations = []
    for i in range(n):
        for j in range(n):
            for k in range(i, n):  # i <-> k symmetry of the identity
                left, right = prods[j][k][i], prods[i][j][k]
                if left != right:
                    violations.append({
                        "triple": (alg.labels[i], alg.labels[j], alg.labels[k]),
                        "lhs": str(alg.field.join(left, den)),
                        "rhs": str(alg.field.join(right, den)),
                    })
    return violations


def miyamoto(alg: Algebra, dec: AxisDecomposition, negative_eigenvalues,
             form: BilinearForm = None) -> Matrix:
    """The involution I - 2 sum_{lam in neg} P_lam, which negates the given
    eigenspaces of ad_a and fixes the rest; P_lam is the eigenspace
    projector prod_{kappa != lam} (ad_a - kappa) / (lam - kappa) over the
    decomposition's other eigenvalues kappa.

    Checked to be an involutive algebra automorphism (and an isometry of
    the form when one is supplied); raises on violation.
    """
    field = alg.field
    neg = {field.of(x) for x in negative_eigenvalues}
    if not neg <= set(dec.eigenvalues):
        raise ValueError("negative eigenvalues outside the decomposition")
    ad = alg.ad(dec.axis)
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


def is_automorphism(alg: Algebra, T: Matrix, form: BilinearForm = None) -> bool:
    """True iff T maps every basis product e_i e_j to T e_i . T e_j and,
    when a form is given, T^T G T == G for its Gram matrix G."""
    n = alg.dim
    cols = [tuple(row[i] for row in T.data) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if T.matvec(alg.mul_table[i][j]) != alg.mul(cols[i], cols[j]):
                return False
    return (form is None
            or T.transpose().matmul(form.gram.matmul(T)) == form.gram)


def subalgebra_closure(alg: Algebra, generators):
    """RREF basis of the smallest product-closed subspace containing the
    generators; iterates span growth to a fixpoint."""
    field = alg.field
    basis_m, pivots = span_rref(field, [tuple(g) for g in generators])
    while True:
        current = [tuple(r) for r in basis_m.data]
        new_vecs = list(current)
        grew = False
        for i, u in enumerate(current):
            for v in current[i:]:
                p = alg.mul(u, v)
                if not in_span(field, basis_m, pivots, p):
                    new_vecs.append(p)
                    grew = True
        if not grew:
            return current
        basis_m, pivots = span_rref(field, new_vecs)


def subalgebra_algebra(alg: Algebra, basis_vectors):
    """Materialize a product-closed subspace as an Algebra in its own
    coordinates; returns (Algebra, coords) where coords maps an ambient
    vector inside the subspace to subalgebra coordinates."""
    field = alg.field
    m, pivots = span_rref(field, [tuple(v) for v in basis_vectors])
    k = len(pivots)

    def coords(v):
        out, rest = _reduce(field, m, pivots, v)
        if not vec_is_zero(field, rest):
            raise ValueError("vector outside the subalgebra")
        return tuple(out)

    table = [[coords(alg.mul(tuple(m.data[i]), tuple(m.data[j])))
              for j in range(k)] for i in range(k)]
    return Algebra(field, [f"s_{i}" for i in range(k)], table), coords


def radical(form: BilinearForm):
    """Kernel of the Gram matrix = radical of the Frobenius form."""
    return kernel_basis(form.gram)


def is_ideal(alg: Algebra, subspace):
    """True iff the span of the subspace absorbs products with the basis."""
    field = alg.field
    basis_m, pivots = span_rref(field, [tuple(v) for v in subspace])
    for i in range(alg.dim):
        ei = unit_vec(field, alg.dim, i)
        for v in basis_m.data:
            if not in_span(field, basis_m, pivots, alg.mul(ei, tuple(v))):
                return False
    return True


def quotient(alg: Algebra, form: BilinearForm, ideal):
    """Quotient algebra and induced form on a complement basis.

    The ideal must absorb products (NotAnIdeal otherwise).  The induced
    form is only well defined when the ideal lies in the form's kernel;
    that containment is checked here as well.
    """
    field = alg.field
    ideal_m, pivots = span_rref(field, [tuple(v) for v in ideal])
    if not is_ideal(alg, ideal_m.data):
        raise NotAnIdeal("subspace does not absorb products")
    comp = [j for j in range(alg.dim) if j not in pivots]

    def project(v):
        """Reduce modulo the ideal, then read off complement coordinates."""
        rest = _reduce(field, ideal_m, pivots, v)[1]
        return tuple(rest[j] for j in comp)

    qalg = Algebra(field, [alg.labels[j] for j in comp],
                   [[project(alg.mul_table[i][j]) for j in comp] for i in comp])
    # induced form well-defined <=> ideal is in the kernel of the form
    if not all(vec_is_zero(field, form.gram.matvec(v)) for v in ideal_m.data):
        raise NotAnIdeal("ideal not contained in the form kernel; "
                         "induced form undefined")
    qgram = Matrix(field, [[form.gram.data[i][j] for j in comp] for i in comp])
    return qalg, BilinearForm(field, qgram), project


def verify_grading(rule: FusionRule, grading) -> bool:
    """True iff grading, a map eigenvalue -> element of an elementary
    abelian 2-group written as an int under bitwise xor, covers the
    rule's eigenvalues and grading[nu] == grading[lam] ^ grading[mu] for
    every nu in lam * mu."""
    evs = rule.eigenvalues
    return (all(lam in grading for lam in evs)
            and all(grading[nu] == grading[lam] ^ grading[mu]
                    for lam in evs for mu in evs for nu in rule[(lam, mu)]))
