"""Test-only oracle: the Gram matrix of the Frobenius form on M_4A over
Q(t), in closed form.

axia completes the form from one value per seed under the symmetry
generators (axia.m4.build_m4a).  tests/test_m4.py compares every entry of
that Gram matrix against the closed form here, which reads each value off
the kinds of the two basis vectors and how their indices meet.
"""

from axia.linalg import Matrix
from axia.m4 import M4A_LABELS, _parse_label
from axia.scalars import QT


def m4a_gram() -> Matrix:
    """Closed-form Gram matrix of the Frobenius form on M_4A over Q(t)."""
    field = QT
    t = field.t
    c = field.of
    parsed = [_parse_label(lab) for lab in M4A_LABELS]

    def entry(x, y):
        (ka, va), (kb, vb) = x, y
        if ka > kb:
            (ka, va), (kb, vb) = (kb, vb), (ka, va)
        if ka == "a" and kb == "a":
            if va == vb:
                return c(1)
            if va == -vb:
                return c(0)
            return c("1/32")
        if ka == "a" and kb == "v":
            return c("3/8") if abs(va) in vb else t
        if ka == "a" and kb == "w":
            if va == vb:
                return t
            if va == -vb:
                return c(0)
            return c("3/16") * t
        if ka == "v" and kb == "v":
            if va == vb:
                return c(2)
            return c("1/2") - c("8/3") * t
        if ka == "v" and kb == "w":
            return c("-1/4") * t if vb in va else t
        # w, w
        if va == vb:
            return (c(3) * t + 1) * t * c("1/4")
        return (c(2) * t + 1) * t * c("1/16")

    n = len(parsed)
    return Matrix(field, [[entry(parsed[i], parsed[j]) for j in range(n)]
                          for i in range(n)])
