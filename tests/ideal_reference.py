"""Test-only: the ideal test by rank, moved here from axia.algebra.

No command reaches it, since axia.algebra.quotient eliminates its ideal
itself and tests it with the same _absorbs.  tests/test_spans.py holds
it to the field-loop is_ideal of tests/elimination_reference.py.
"""

from axia.algebra import _absorbs
from axia.linalg import span_rref


def is_ideal(alg, subspace):
    """True iff the span of the subspace absorbs products with the basis."""
    return _absorbs(alg, span_rref(alg.field,
                                   [tuple(v) for v in subspace])[0])
