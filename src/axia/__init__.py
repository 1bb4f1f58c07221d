"""Exact-arithmetic construction, verification and certification of the
axial algebras of Monster type: the eight dihedral algebras, the
7-dimensional M_4B over Q and the 12-dimensional family M_4A over Q(t).
"""

__version__ = "0.1.0"

from .algebra import (Algebra, BilinearForm, FusionRule,  # noqa: F401
                      axis_decomposition, verify_frobenius, verify_fusion)
from .catalog import (DIHEDRAL_TYPES, dihedral, f4a_rule,  # noqa: F401
                      jordan_half_rule, monster_rule)
from .m4 import build_m4a, build_m4b  # noqa: F401
