"""Hard-coded fusion rules and the eight dihedral algebras of Monster type.

Each dihedral algebra is stored as seeds: published representative pairs,
each with its product and its form value, and the one idempotent a_0 of
norm 1.  complete_algebra materializes the full product table and Gram
matrix in one pass under the two generators of the dihedral symmetry,
tau_0 (k -> -k on axis indices) and swap_01 (k -> 1-k), both with the
extra basis vectors fixed; they are stored as the algebra's symmetries,
and any inconsistency fails loudly.

The fusion rules and each type's completion depend only on the data
below, so each is made once per process, on first use.

Basis ordering follows the published tables: axes in index order, then the
extra vectors (a_rho, u_rho, v_rho, w_rho as applicable).
"""

from __future__ import annotations

from functools import cache

from .algebra import ConstructedAlgebra, FusionRule
from .completion import complete_algebra, label_map
from .scalars import QQ, QT

# ---------------------------------------------------------------------------
# Fusion rules
# ---------------------------------------------------------------------------


@cache
def monster_rule(field=QQ) -> FusionRule:
    """The Monster (Majorana) fusion rule on {1, 0, 1/4, 1/32}."""
    one, zero, q, e = "1", "0", "1/4", "1/32"
    table = {
        (one, one): {one}, (one, zero): set(), (one, q): {q}, (one, e): {e},
        (zero, zero): {zero}, (zero, q): {q}, (zero, e): {e},
        (q, q): {one, zero}, (q, e): {e},
        (e, e): {one, zero, q},
    }
    return FusionRule(field, (one, zero, q, e), table)


@cache
def jordan_half_rule(field=QQ) -> FusionRule:
    """The Jordan-type-1/2 fusion rule on {1, 0, 1/2}."""
    one, zero, h = field.of(1), field.of(0), field.of("1/2")
    table = {
        (one, one): {one}, (one, zero): set(), (one, h): {h},
        (zero, zero): {zero}, (zero, h): {h},
        (h, h): {one, zero},
    }
    return FusionRule(field, (one, zero, h), table)


@cache
def f4a_rule() -> FusionRule:
    """The 4A-axis fusion rule on {1, 0, 1/2, 3/8, t} over Q(t), t the
    indeterminate."""
    field = QT
    one, zero, h, s, t = (field.of(1), field.of(0), field.of("1/2"),
                          field.of("3/8"), field.t)
    table = {
        (one, one): {one}, (one, zero): set(), (one, h): {h},
        (one, s): {s}, (one, t): {t},
        (zero, zero): {zero}, (zero, h): {h}, (zero, s): {s}, (zero, t): {t},
        (h, h): {one, zero}, (h, s): {s}, (h, t): {t},
        (s, s): {one, zero, h}, (s, t): set(),
        (t, t): {one, zero, h},
    }
    return FusionRule(field, (one, zero, h, s, t), table)


# ---------------------------------------------------------------------------
# Dihedral catalog data
#
# Axis labels are integers k (the axis a_k, index mod N, the number of
# integer labels); extra basis vectors are strings.  Each seed is a
# representative pair with its product and its form value, as published;
# the idempotent norm-1 axis is implicit (a_0 * a_0 = a_0 and (a_0, a_0)
# = 1 are seeded, and tau_0 and swap_01 carry a_0 to every axis).
# ---------------------------------------------------------------------------

DIHEDRAL_TYPES = ("2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A")

_DIHEDRAL_DATA = {
    "2A": {
        "basis": [0, 1, "rho"],
        # a_rho is itself a norm-1 axis; the Frobenius identity on the
        # triple (a_0, a_1, a_rho) forces (a_rho, a_rho) = 1
        "seeds": [
            ((0, 1), {0: "1/8", 1: "1/8", "rho": "-1/8"}, "1/8"),
            ((0, "rho"), {0: "1/8", "rho": "1/8", 1: "-1/8"}, "1/8"),
            (("rho", "rho"), {"rho": "1"}, "1"),
        ],
    },
    "2B": {
        "basis": [0, 1],
        "seeds": [((0, 1), {}, "0")],
    },
    "3A": {
        "basis": [-1, 0, 1, "u"],
        "seeds": [
            ((0, 1), {0: "1/16", 1: "1/16", -1: "1/32", "u": "-135/2048"},
             "13/256"),
            ((0, "u"), {0: "2/9", 1: "-1/9", -1: "-1/9", "u": "5/32"},
             "1/4"),
            (("u", "u"), {"u": "1"}, "8/5"),
        ],
    },
    "3C": {
        "basis": [-1, 0, 1],
        "seeds": [((0, 1), {0: "1/64", 1: "1/64", -1: "-1/64"}, "1/64")],
    },
    "4A": {
        "basis": [-1, 0, 1, 2, "v"],
        "seeds": [
            ((0, 1), {0: "3/64", 1: "3/64", 2: "1/64", -1: "1/64",
                      "v": "-3/64"}, "1/32"),
            ((0, "v"), {0: "5/16", 1: "-1/8", 2: "-1/16", -1: "-1/8",
                        "v": "3/16"}, "3/8"),
            (("v", "v"), {"v": "1"}, "2"),
            ((0, 2), {}, "0"),
        ],
    },
    "4B": {
        "basis": [-1, 0, 1, 2, "rho"],
        "seeds": [
            ((0, 1), {0: "1/64", 1: "1/64", -1: "-1/64", 2: "-1/64",
                      "rho": "1/64"}, "1/64"),
            ((0, 2), {0: "1/8", 2: "1/8", "rho": "-1/8"}, "1/8"),
            # the pair {a_0, a_2} generates a 2A with the same a_rho
            ((0, "rho"), {0: "1/8", "rho": "1/8", 2: "-1/8"}, "1/8"),
            (("rho", "rho"), {"rho": "1"}, "1"),
        ],
    },
    "5A": {
        "basis": [-2, -1, 0, 1, 2, "w"],
        "seeds": [
            ((0, 1), {0: "3/128", 1: "3/128", 2: "-1/128", -1: "-1/128",
                      -2: "-1/128", "w": "1"}, "3/128"),
            ((0, 2), {0: "3/128", 2: "3/128", 1: "-1/128", -1: "-1/128",
                      -2: "-1/128", "w": "-1"}, "3/128"),
            ((0, "w"), {1: "7/4096", -1: "7/4096", 2: "-7/4096",
                        -2: "-7/4096", "w": "7/32"}, "0"),
            (("w", "w"), {-2: "175/524288", -1: "175/524288",
                          0: "175/524288", 1: "175/524288",
                          2: "175/524288"}, "875/524288"),
        ],
    },
    "6A": {
        "basis": [-2, -1, 0, 1, 2, 3, "rho", "u"],
        "seeds": [
            ((0, 1), {0: "1/64", 1: "1/64", -2: "-1/64", -1: "-1/64",
                      2: "-1/64", 3: "-1/64", "rho": "1/64",
                      "u": "45/2048"}, "5/256"),
            ((0, 2), {0: "1/16", 2: "1/16", -2: "1/32", "u": "-135/2048"},
             "13/256"),
            ((0, "u"), {0: "2/9", 2: "-1/9", -2: "-1/9", "u": "5/32"},
             "1/4"),
            ((0, 3), {0: "1/8", 3: "1/8", "rho": "-1/8"}, "1/8"),
            (("rho", "u"), {}, "0"),
            # the pair {a_0, a_3} generates a 2A with the same a_rho
            ((0, "rho"), {0: "1/8", "rho": "1/8", 3: "-1/8"}, "1/8"),
            (("rho", "rho"), {"rho": "1"}, "1"),
            (("u", "u"), {"u": "1"}, "8/5"),
        ],
    },
}

# Eigenvectors of the axis a_0 per type (eigenvalue -> list of vectors),
# as published, with four typographic corrections forced by
# tau(a_0)-invariance of the 0-eigenspace (noted where they occur):
# the published source omits a_0 in the 2A 0-eigenvector and prints
# a_k - a_{-k} for a_k + a_{-k} in one 5A and one 6A 0-eigenvector.
REFERENCE_EIGENVECTORS = {
    "2A": {
        "0": [{1: "1", "rho": "1", 0: "-1/4"}],
        "1/4": [{1: "1", "rho": "-1"}],
        "1/32": [],
    },
    "2B": {"0": [{1: "1"}], "1/4": [], "1/32": []},
    "3A": {
        "0": [{"u": "1", 0: "-10/27", 1: "32/27", -1: "32/27"}],
        "1/4": [{"u": "1", 0: "-8/45", 1: "-32/45", -1: "-32/45"}],
        "1/32": [{1: "1", -1: "-1"}],
    },
    "3C": {
        "0": [{1: "1", -1: "1", 0: "-1/32"}],
        "1/4": [],
        "1/32": [{1: "1", -1: "-1"}],
    },
    "4A": {
        "0": [{"v": "1", 0: "-1/2", 1: "2", -1: "2"}, {2: "1"}],
        "1/4": [{"v": "1", 0: "-1/3", 1: "-2/3", -1: "-2/3", 2: "-1/3"}],
        "1/32": [{1: "1", -1: "-1"}],
    },
    "4B": {
        "0": [{1: "1", -1: "1", 0: "-1/32", "rho": "-1/8", 2: "1/8"},
              {2: "1", "rho": "1", 0: "-1/4"}],
        "1/4": [{2: "1", "rho": "-1"}],
        "1/32": [{1: "1", -1: "-1"}],
    },
    "5A": {
        # first vector: published (a_2 - a_{-2}); corrected to +.
        "0": [{"w": "1", 0: "3/512", 1: "-15/128", -1: "-15/128",
               2: "-1/128", -2: "-1/128"},
              {"w": "1", 0: "-3/512", 1: "1/128", -1: "1/128",
               2: "15/128", -2: "15/128"}],
        "1/4": [{"w": "1", 1: "1/128", -1: "1/128", 2: "-1/128",
                 -2: "-1/128"}],
        "1/32": [{1: "1", -1: "-1"}, {2: "1", -2: "-1"}],
    },
    "6A": {
        # first vector: published (a_1 - a_{-1}); corrected to +.
        "0": [{"u": "1", 0: "2/45", 1: "-256/45", -1: "-256/45",
               2: "-32/45", -2: "-32/45", 3: "-32/45", "rho": "32/45"},
              {3: "1", "rho": "1", 0: "-1/4"},
              {"u": "1", 0: "-10/27", 2: "32/27", -2: "32/27"}],
        "1/4": [{"u": "1", 0: "-8/45", 2: "-32/45", -2: "-32/45",
                 3: "-32/45", "rho": "32/45"},
                {3: "1", "rho": "-1"}],
        "1/32": [{1: "1", -1: "-1"}, {2: "1", -2: "-1"}],
    },
}


def _label(key):
    if isinstance(key, int):
        return f"a_{key}"
    return "a_rho" if key == "rho" else f"{key}_rho"


def dihedral_dimension(name: str) -> int:
    """Dimension of a dihedral catalog algebra, read from its basis."""
    return len(_DIHEDRAL_DATA[name]["basis"])


def dihedral_seeds(name: str):
    """(labels, seeds, generators) of a dihedral catalog algebra: the seeds
    of complete_algebra (the published pairs and a_0 a_0 = a_0) and its two
    relabeling generators over Q by name, tau_0 (a_k -> a_-k) and swap_01
    (a_k -> a_1-k), with indices taken mod n into the range of the basis
    and the extra vectors fixed."""
    if name not in _DIHEDRAL_DATA:
        raise ValueError(f"unknown dihedral type {name!r}; "
                         f"expected one of {DIHEDRAL_TYPES}")
    data = _DIHEDRAL_DATA[name]
    basis = data["basis"]
    n = sum(isinstance(k, int) for k in basis)
    labels = [_label(k) for k in basis]
    seeds = [(("a_0", "a_0"), {"a_0": 1}, 1)]
    seeds += [((_label(u), _label(v)),
               {_label(k): c for k, c in product.items()}, form_value)
              for (u, v), product, form_value in data["seeds"]]
    keys = dict(zip(labels, basis))

    def relabeling(index_map):
        def image(lab):
            k = keys[lab]
            if not isinstance(k, int):
                return {lab: 1}
            k = index_map(k) % n
            return {_label(k - n if k > n // 2 else k): 1}
        return label_map(QQ, labels, image)

    generators = {"tau_0": relabeling(lambda k: -k),
                  "swap_01": relabeling(lambda k: 1 - k)}
    return labels, seeds, generators


@cache
def _completed(name):
    """(algebra, form, generators) of a dihedral type: complete_algebra
    on its seeds under its two generators, made once per process."""
    labels, seeds, generators = dihedral_seeds(name)
    alg, form = complete_algebra(QQ, labels, seeds,
                                 list(generators.values()))
    return alg, form, generators


def dihedral(name: str) -> ConstructedAlgebra:
    """A dihedral catalog algebra (over Q), completed from its seeds on
    the first call (_completed); its symmetries are the two relabeling
    generators.  Each call returns a fresh record, with its own
    symmetries dict, around the shared algebra, form and generators."""
    alg, form, generators = _completed(name)
    ref = {QQ.of(lam): [alg.vector({_label(k): c for k, c in combo.items()})
                        for combo in vecs]
           for lam, vecs in REFERENCE_EIGENVECTORS[name].items()}
    axis_keys = sorted(k for k in _DIHEDRAL_DATA[name]["basis"]
                       if isinstance(k, int))
    return ConstructedAlgebra(alg, form, axis_keys, dict(generators),
                              reference_eigenvectors=ref)
