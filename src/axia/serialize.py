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
    """Returns (Algebra, BilinearForm or None); ValueError when d is no
    JSON object, naming the key when one is missing or malformed, and the
    index of a malformed entry of mul_table or gram (a zero denominator
    included)."""
    if not isinstance(d, dict):
        raise ValueError(f"algebra JSON is not an object: {d!r}")
    missing = [k for k in ("field", "labels", "mul_table") if k not in d]
    if missing:
        raise ValueError(f"algebra JSON lacks the keys {missing}")
    if not isinstance(d["field"], str) or d["field"] not in FIELDS_BY_KIND:
        raise ValueError(f"unknown 'field' kind {d['field']!r}")
    field = FIELDS_BY_KIND[d["field"]]
    labels = d["labels"]
    if not isinstance(labels, list) or any(type(x) is not str for x in labels):
        raise ValueError(f"'labels' is not a list of strings: {labels!r}")
    pairs = upper_pairs(len(labels))

    def read(key, entry):
        if not (isinstance(d[key], list) and len(d[key]) == len(pairs)):
            raise ValueError(f"{key!r} is not a list of {len(pairs)} entries")
        out = {}
        for i, (p, x) in enumerate(zip(pairs, d[key])):
            try:
                out[p] = entry(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{key}[{i}]: {exc}") from exc
        return out

    def vector(xs):
        if not isinstance(xs, list) or len(xs) != len(labels):
            raise ValueError(f"not a list of {len(labels)} scalars: {xs!r}")
        return tuple(map(field.from_json, xs))

    alg = Algebra(field, labels, read("mul_table", vector))
    form = None
    if d.get("gram") is not None:
        form = BilinearForm(field, read("gram", field.from_json))
        check_pairing(alg, form)
    return alg, form


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
