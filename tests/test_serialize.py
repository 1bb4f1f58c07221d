"""JSON serialization round-trips for algebras."""

import pytest

from axia.catalog import dihedral
from axia.serialize import (algebra_from_json, algebra_to_json, dump_json,
                            load_json)


def test_algebra_roundtrip_with_form():
    d = dihedral("3A")
    doc = algebra_to_json(d.algebra, d.form)
    assert doc["labels"] == list(d.algebra.labels)
    n = d.algebra.dim
    assert len(doc["mul_table"]) == n * (n + 1) // 2
    alg, form = algebra_from_json(doc)
    assert alg.labels == d.algebra.labels
    assert alg.mul_table == d.algebra.mul_table
    assert form.gram == d.form.gram


def test_algebra_roundtrip_without_form():
    d = dihedral("2B")
    doc = algebra_to_json(d.algebra)
    alg, form = algebra_from_json(doc)
    assert form is None
    assert alg.mul_table == d.algebra.mul_table


def test_dump_and_load_json(tmp_path):
    d = dihedral("2A")
    path = tmp_path / "alg.json"
    dump_json(algebra_to_json(d.algebra, d.form), path)
    alg, form = algebra_from_json(load_json(path))
    assert alg.mul_table == d.algebra.mul_table
    assert form.gram == d.form.gram


@pytest.mark.parametrize("key", ["mul_table", "gram"])
def test_upper_triangle_of_wrong_length_rejected(key):
    d = dihedral("3A")
    doc = algebra_to_json(d.algebra, d.form)
    assert len(doc[key]) == 10
    for entries in (doc[key][:3], doc[key] + doc[key][:1]):
        with pytest.raises(ValueError, match=key):
            algebra_from_json({**doc, key: entries})


def test_repeated_labels_rejected():
    d = dihedral("2B")
    doc = algebra_to_json(d.algebra, d.form)
    with pytest.raises(ValueError, match="repeated basis labels"):
        algebra_from_json({**doc, "labels": ["a_0", "a_0"]})
