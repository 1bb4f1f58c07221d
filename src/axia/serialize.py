"""JSON serialization of scalars and algebras.

Rationals are serialized as exact "p/q" strings (decimals rejected);
rational functions as {"num": [...], "den": [...]} coefficient lists in
ascending degree.  Algebras: {field, labels, mul_table, gram?} storing one
entry per unordered pair (i, j), i <= j, in the lexicographic order of
linalg.upper_pairs; these are exactly what Algebra and BilinearForm take.
"""

from __future__ import annotations

import json

from .algebra import Algebra, BilinearForm, check_pairing
from .linalg import upper_pairs
from .scalars import FIELDS_BY_KIND


def algebra_to_json(alg: Algebra, form: BilinearForm = None) -> dict:
    field = alg.field
    out = {
        "field": field.kind,
        "labels": list(alg.labels),
        "mul_table": [[field.to_json(x) for x in alg.mul_table[i][j]]
                      for i, j in upper_pairs(alg.dim)],
    }
    if form is not None:
        out["gram"] = [field.to_json(form.gram.data[i][j])
                       for i, j in upper_pairs(alg.dim)]
    return out


def algebra_from_json(d: dict):
    """Returns (Algebra, BilinearForm or None); ValueError naming the key
    when field, labels or mul_table is missing or the field is unknown."""
    missing = [k for k in ("field", "labels", "mul_table") if k not in d]
    if missing:
        raise ValueError(f"algebra JSON lacks the keys {missing}")
    if d["field"] not in FIELDS_BY_KIND:
        raise ValueError(f"unknown 'field' kind {d['field']!r}")
    field = FIELDS_BY_KIND[d["field"]]
    labels = d["labels"]
    n = len(labels)
    pairs = upper_pairs(n)
    for key in ("mul_table", "gram"):
        if d.get(key) is not None and len(d[key]) != len(pairs):
            raise ValueError(f"{key} length does not match upper triangle")
    alg = Algebra(field, labels,
                  {p: tuple(field.from_json(x) for x in entry)
                   for p, entry in zip(pairs, d["mul_table"])})
    form = None
    if d.get("gram") is not None:
        form = BilinearForm(field, {p: field.from_json(x)
                                    for p, x in zip(pairs, d["gram"])})
        check_pairing(alg, form)
    return alg, form


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
