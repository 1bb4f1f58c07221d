"""JSON serialization round-trips for algebras, and the report writer
against json.dumps(indent=2)."""

import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from axia import serialize
from axia.algebra import BilinearForm
from axia.catalog import DIHEDRAL_TYPES, dihedral
from axia.errors import DimensionMismatch
from axia.linalg import upper_pairs
from axia.m4 import build_m4a, build_m4b
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


@pytest.mark.parametrize("key", ["field", "labels", "mul_table"])
def test_a_missing_key_is_named(key):
    doc = algebra_to_json(dihedral("3A").algebra)
    del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        algebra_from_json(doc)


def test_a_file_holding_null_is_rejected(tmp_path):
    path = tmp_path / "null.json"
    path.write_text("null\n")
    with pytest.raises(ValueError, match="not an object: None"):
        algebra_from_json(load_json(path))


def test_a_string_holding_the_key_names_is_rejected():
    # "in" finds every key in the string, so only the type check stops it
    with pytest.raises(ValueError, match="not an object"):
        algebra_from_json("field labels mul_table")


def test_an_unknown_field_kind_is_named():
    doc = algebra_to_json(dihedral("3A").algebra)
    with pytest.raises(ValueError, match="'field' kind 'octonions'"):
        algebra_from_json({**doc, "field": "octonions"})


def test_a_form_of_another_dimension_is_rejected(monkeypatch):
    # a form built without the last basis vector is one smaller than the
    # algebra, and pairing the two fails
    d = dihedral("3A")
    doc = algebra_to_json(d.algebra, d.form)
    n = d.algebra.dim

    def without_last(field, values):
        return BilinearForm(field, {p: values[p]
                                    for p in upper_pairs(n - 1)})
    monkeypatch.setattr(serialize, "BilinearForm", without_last)
    with pytest.raises(DimensionMismatch, match="form of dimension 3"):
        algebra_from_json(doc)


def test_repeated_labels_rejected():
    d = dihedral("2B")
    doc = algebra_to_json(d.algebra, d.form)
    with pytest.raises(ValueError, match="repeated basis labels"):
        algebra_from_json({**doc, "labels": ["a_0", "a_0"]})


BUILDERS = {"m4a": build_m4a, "m4b": build_m4b,
            **{f"dihedral:{name}": (lambda name=name: dihedral(name))
               for name in DIHEDRAL_TYPES}}


@pytest.mark.parametrize("target", BUILDERS)
def test_round_trip_of_every_build_target_keeps_the_tables(target):
    built = BUILDERS[target]()
    doc = json.loads(json.dumps(algebra_to_json(built.algebra, built.form)))
    alg, form = algebra_from_json(doc)
    assert alg.labels == built.algebra.labels
    assert alg.mul_table == built.algebra.mul_table
    assert alg.table_nums == built.algebra.table_nums
    assert alg.table_den == built.algebra.table_den
    assert form.gram == built.form.gram


def _qq_doc():
    d = dihedral("3A")
    return algebra_to_json(d.algebra, d.form)


def _qt_doc():
    return algebra_to_json(build_m4a().algebra)


def _with_entry(doc, key, i, value, k=None):
    """doc with entry i of key (coordinate k of it, for mul_table)
    replaced by value."""
    entries = [list(e) if isinstance(e, list) else e for e in doc[key]]
    if k is None:
        entries[i] = value
    else:
        entries[i][k] = value
    return {**doc, key: entries}


# each malformed document and the text its ValueError must name
MALFORMED = {
    "qq-number": (lambda: _with_entry(_qq_doc(), "mul_table", 4, 0.5, 1),
                  r"mul_table\[4\]"),
    "qq-gram-number": (lambda: _with_entry(_qq_doc(), "gram", 2, 1),
                       r"gram\[2\]"),
    "qq-zero-denominator": (
        lambda: _with_entry(_qq_doc(), "mul_table", 3, "1/0", 0),
        r"mul_table\[3\]"),
    "qt-string": (lambda: _with_entry(_qt_doc(), "mul_table", 5, "t", 2),
                  r"mul_table\[5\]"),
    "qt-no-num": (
        lambda: _with_entry(_qt_doc(), "mul_table", 6, {"den": ["1"]}, 0),
        r"mul_table\[6\]"),
    "qt-num-string": (lambda: _with_entry(
        _qt_doc(), "mul_table", 7, {"num": "12", "den": ["1"]}, 0),
        r"mul_table\[7\]"),
    "qt-zero-denominator": (lambda: _with_entry(
        _qt_doc(), "mul_table", 8, {"num": ["1"], "den": ["0"]}, 1),
        r"mul_table\[8\]"),
    "entry-not-a-list": (lambda: _with_entry(_qq_doc(), "mul_table", 1, "12"),
                         r"mul_table\[1\]"),
    "entry-too-short": (
        lambda: _with_entry(_qq_doc(), "mul_table", 9, ["0", "1"]),
        r"mul_table\[9\]"),
    "field-list": (lambda: {**_qq_doc(), "field": ["rationals"]}, "'field'"),
    "mul-table-null": (lambda: {**_qq_doc(), "mul_table": None},
                       "'mul_table'"),
    "labels-string": (lambda: {**algebra_to_json(dihedral("2B").algebra),
                               "labels": "ab"}, "'labels'"),
    "labels-not-strings": (lambda: {**_qq_doc(), "labels": [0, 1, 2, 3]},
                           "'labels'"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_json_raises_value_error_naming_the_entry(case):
    doc, where = MALFORMED[case]
    with pytest.raises(ValueError, match=where):
        algebra_from_json(json.loads(json.dumps(doc())))


# json.dumps(obj, indent=2) is the oracle of dump_json: the file holds its
# text and a newline.
def _dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


odd_strings = st.sampled_from(["", "\x00\x1f\x7f\"\\/\b\f\n\r\t",
                               "\u00e9\u2200\u2028\U0001f600", "\ud800"])
ints = st.one_of(st.integers(), st.integers(-10 ** 60, 10 ** 60))
leaves = st.one_of(st.none(), st.booleans(), ints, st.text(), odd_strings)
keys = st.one_of(st.text(), odd_strings)
documents = st.recursive(
    leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents)
def test_dump_json_writes_what_json_dumps_writes(tmp_path, doc):
    path = tmp_path / "report.json"
    dump_json(doc, path)
    assert path.read_bytes() == _dumps(doc).encode("utf-8")


class Label(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


@pytest.mark.parametrize("doc", [
    OrderedDict([("b", [Label("x"), Count(3)]), (Label("a"), Count(0))]),
    {Label("7"): True, Label(""): None, "\n": (), Label("\u00e9"): {}},
    [Count(-1), (Label("\n"),), OrderedDict()],
], ids=["subclasses", "keys", "nested"])
def test_dump_json_follows_json_on_subclasses(tmp_path, doc):
    path = tmp_path / "report.json"
    dump_json(doc, path)
    assert path.read_text(encoding="utf-8") == _dumps(doc)


@pytest.mark.parametrize("doc, message", [
    ({"report": [{"t0": "1/12", "value": Fraction(1, 12)}]},
     "Object of type Fraction is not JSON serializable"),
    ({"report": {(0, 1): "pair"}}, "keys must be str, not tuple"),
], ids=["fraction-value", "tuple-key"])
def test_dump_json_raises_json_type_error_and_keeps_the_file(tmp_path, doc,
                                                             message):
    path = tmp_path / "report.json"
    path.write_text("earlier report\n")
    with pytest.raises(TypeError) as exc:
        dump_json(doc, path)
    assert str(exc.value) == message
    assert path.read_text() == "earlier report\n"


@pytest.mark.parametrize("doc, message", [
    ({"t0": 0.5}, "Object of type float is not JSON serializable"),
    ({"report": {1: "one"}}, "keys must be str, not int"),
], ids=["float-value", "int-key"])
def test_a_float_value_or_an_int_key_raises(tmp_path, doc, message):
    # json.dumps writes both; the certifier's reports hold neither, so the
    # writer keeps only the exact kinds
    json.dumps(doc, indent=2)
    with pytest.raises(TypeError, match=message):
        dump_json(doc, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()
