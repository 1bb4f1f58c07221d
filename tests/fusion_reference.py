"""Test-only reference for the fusion check, as axia made it before the
integer test.

axia.algebra.verify_fusion decides each eigenvector product with
prod_{nu in lam * mu} (ad_a - nu), evaluated on integers at one point past
a coefficient bound.  Here each product u*v is reduced against the row
echelon basis of the allowed eigenspaces over the algebra's field, so
tests/test_fusion.py can compare the two record for record.
"""

from axia.linalg import vec_is_zero
from elimination_reference import in_span, span_rref


def verify_fusion(alg, dec, rule):
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
