"""Command-line interface: verbs, exit codes, exact-input validation,
JSON output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import axia
from axia import certify as cert
from axia import cli
from axia import m4
from axia.catalog import DIHEDRAL_TYPES, dihedral
from axia.cli import run
from axia.errors import NotAnIdeal, NotSemisimple
from axia.scalars import QT
from axia.serialize import algebra_from_json, load_json

from conftest import tamper_m4a_seed


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A"):
        assert name in out


def test_catalog_listing_dimensions(tmp_path):
    # the listing reads each dimension from the catalog data; it must be
    # the dimension of the algebra that dihedral() builds
    path = tmp_path / "catalog.json"
    assert run(["catalog", "--out", str(path)]) == 0
    rep = json.loads(path.read_text())
    assert [r["type"] for r in rep] == list(DIHEDRAL_TYPES)
    for row in rep:
        assert row["dimension"] == dihedral(row["type"]).algebra.dim


def test_catalog_export(tmp_path):
    path = tmp_path / "d4a.json"
    assert run(["catalog", "4A", "--out", str(path)]) == 0
    alg, form = algebra_from_json(load_json(path))
    assert alg.dim == 5
    assert form is not None


def test_build_m4b_roundtrip(tmp_path):
    path = tmp_path / "m4b.json"
    assert run(["build", "m4b", "--out", str(path)]) == 0
    doc = load_json(path)
    assert doc["field"] == "rationals"
    alg, form = algebra_from_json(doc)
    assert alg.dim == 7
    from axia.m4 import build_m4b
    built = build_m4b()
    assert alg.mul_table == built.algebra.mul_table
    assert form.gram == built.form.gram


def test_build_m4a_json_is_symbolic(tmp_path):
    path = tmp_path / "m4a.json"
    assert run(["build", "m4a", "--out", str(path)]) == 0
    doc = load_json(path)
    assert doc["field"] == "rational_functions"
    assert len(doc["labels"]) == 12


def test_verify_dihedral_exit_zero():
    assert run(["verify", "dihedral:3C"]) == 0


def test_verify_report_json(tmp_path):
    path = tmp_path / "rep.json"
    assert run(["verify", "m4b", "--out", str(path)]) == 0
    rep = json.loads(path.read_text())
    assert rep["pass"] is True
    assert any(c["name"] == "dimension" for c in rep["checks"])


def test_radical_single_point(capsys):
    assert run(["radical", "--t", "9/4"]) == 0
    assert "radical_dim=5" in capsys.readouterr().out


def test_radical_grid(capsys):
    assert run(["radical", "--grid", "0,1/12,1/6"]) == 0
    out = capsys.readouterr().out
    assert out.count("radical_dim=3") == 2
    assert "radical_dim=0" in out


def test_norton_grid(capsys):
    assert run(["norton", "--grid", "1/12,1/4"]) == 0
    out = capsys.readouterr().out
    assert "norton_psd=True" in out
    assert "norton_psd=False" in out


def test_norton_symbolic_report_keys(written):
    code, data = written("norton --symbolic")
    assert code == 0
    rep = json.loads(data)
    assert list(rep) == ["target", "status", "columns_processed", "diagonal"]
    assert rep["target"] == "norton-symbolic"
    assert rep["status"] == "COMPLETE"
    assert rep["columns_processed"] == len(rep["diagonal"]) == 144


def test_certify_majorana(capsys):
    assert run(["certify", "majorana", "--t", "1/12"]) == 0
    assert "is_majorana=True" in capsys.readouterr().out


def test_certify_quotient_pass_and_fail():
    assert run(["certify", "quotient", "--t", "0"]) == 0
    assert run(["certify", "quotient", "--t", "1/12"]) == 1


def test_gram_report(tmp_path):
    path = tmp_path / "gram.json"
    assert run(["gram", "--out", str(path)]) == 0
    rep = json.loads(path.read_text())
    assert rep["pass"] is True
    assert rep["determinant_matches_closed_form"] is True
    assert len(rep["ldlt_diagonal"]) == 12
    assert len(rep["interval_certificates"]) == 12


def test_catalog_type_exports_as_build(tmp_path):
    catalog, build = tmp_path / "catalog.json", tmp_path / "build.json"
    assert run(["catalog", "4A", "--out", str(catalog)]) == 0
    assert run(["build", "dihedral:4A", "--out", str(build)]) == 0
    assert catalog.read_bytes() == build.read_bytes()


def _section(lines, key):
    """The indented item lines under "key:" in human output."""
    start = lines.index(f"{key}:") + 1
    end = start
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return lines[start:end]


def test_gram_prints_one_line_per_entry(capsys):
    assert run(["gram"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("target=gram, determinant=")
    assert "pass=True" in lines[0]
    assert len(_section(lines, "ldlt_diagonal")) == 12
    certs = _section(lines, "interval_certificates")
    assert len(certs) == 12
    assert all("verdict=" in line for line in certs)
    assert len(lines) == 1 + 1 + 12 + 1 + 12


def test_certify_grid_prints_one_line_per_point(capsys):
    assert run(["certify", "grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for key in ("definiteness", "norton"):
        rows = _section(lines, key)
        assert len(rows) == 12
        assert all(line.startswith("  t0=") for line in rows)
    assert len(lines) == 2 * (1 + 12)


# ---------------------------------------------------------------------------
# exit code 1: the report has "pass": false
# ---------------------------------------------------------------------------

def test_gram_exits_1_when_the_determinant_differs(monkeypatch, tmp_path):
    monkeypatch.setattr(cert, "gram_det_closed_form", lambda: QT.zero)
    path = tmp_path / "gram.json"
    assert run(["gram", "--out", str(path)]) == 1
    rep = json.loads(path.read_text())
    assert rep["determinant_matches_closed_form"] is False
    assert rep["pass"] is False


@pytest.mark.parametrize("argv,pair,label,failed", [
    (["verify", "m4a"], ("a_1", "a_2"), "v_12",
     {"a_1 decomposition": "eigenspace dims [1, 3, 2, 2] sum to 8 != 12"}),
    (["certify", "v4a"], ("v_12", "v_13"), "v_23",
     {"v_12 decomposition": "eigenspace dims [1, 3, 3, 2, 1] sum to 10 "
                            "!= 12"}),
    (["certify", "v4a"], ("v_12", "v_12"), "v_12",
     {"v_12 idempotent": False,
      "v_12 decomposition": "not idempotent: (1)*v_12"}),
], ids=["m4a-not-semisimple", "v4a-not-semisimple", "v4a-not-idempotent"])
def test_an_axis_that_does_not_decompose_exits_1(monkeypatch, tmp_path,
                                                 argv, pair, label, failed):
    # the tampered table still completes, but one axis is not
    # semisimple (or not idempotent): a failed check, not a build error
    tamper_m4a_seed(monkeypatch, pair, label)
    path = tmp_path / "report.json"
    assert run(argv + ["--out", str(path)]) == 1
    rep = json.loads(path.read_text())
    rows = {c["name"]: c for c in rep["checks"]}
    for name, actual in failed.items():
        assert rows[name]["actual"] == actual
        assert rows[name]["pass"] is False


def test_a_quotient_axis_that_does_not_decompose_exits_1(monkeypatch,
                                                         tmp_path):
    def not_semisimple(alg, a, eigenvalues):
        raise NotSemisimple("eigenspace dims [1] sum to 1 != 9")
    monkeypatch.setattr(cert, "axis_decomposition", not_semisimple)
    path = tmp_path / "quotient.json"
    assert run(["certify", "quotient", "--t", "0", "--out", str(path)]) == 1
    (rep,) = json.loads(path.read_text())
    assert rep["pass"] is False and rep["fusion_ok"] is False
    assert rep["axis_failures"][0] == ("a_1: eigenspace dims [1] sum to 1 "
                                       "!= 9")
    assert len(rep["axis_failures"]) == 6


def test_a_radical_that_is_no_ideal_exits_1(monkeypatch, tmp_path):
    def not_an_ideal(alg, form, ideal):
        raise NotAnIdeal("subspace does not absorb products")
    monkeypatch.setattr(cert, "quotient", not_an_ideal)
    path = tmp_path / "quotient.json"
    assert run(["certify", "quotient", "--t", "0", "--out", str(path)]) == 1
    (rep,) = json.loads(path.read_text())
    assert rep == {"t0": "0", "radical_dim": 3, "pass": False,
                   "reason": "radical: subspace does not absorb products"}


def test_a_rebuilt_m4a_rebuilds_its_graded_basis(monkeypatch):
    # the graded basis is cached with M_4A, so a rebuild from tampered
    # seeds (w_1 w_2 gains v_12 / 1000) cannot leave a stale graded basis
    # behind to decide the Norton verdict
    stale = m4.graded_m4a()
    assert cert.norton_check("1/12") is True
    tamper_m4a_seed(monkeypatch, ("w_1", "w_2"), "v_12")
    assert m4.graded_m4a() is not stale
    assert cert.norton_check("1/12") is False


def test_verify_runs_the_suite_bound_at_call_time(monkeypatch, capsys):
    failing = {"target": "m4b", "pass": False,
               "checks": [{"name": "dimension", "expected": 7, "actual": 6,
                           "pass": False}]}
    monkeypatch.setattr(cert, "verify_m4b", lambda: failing)
    assert run(["verify", "m4b"]) == 1
    assert capsys.readouterr().out.startswith("m4b: FAIL\n")


def _fresh_process(argv):
    """python -m axia.cli argv, run in a new process."""
    src = str(Path(axia.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run([sys.executable, "-m", "axia.cli", *argv],
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(path)),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv,code", [
    (["verify", "dihedral:2B"], 0),
    (["certify", "quotient", "--t", "1/12"], 1),
    (["verify", "dihedral:9Z"], 2),
], ids=["pass", "check-failed", "usage-error"])
def test_module_entry_point_exit_codes(argv, code):
    # python -m axia.cli runs main(), which exits with run()'s code
    proc = _fresh_process(argv)
    assert proc.returncode == code
    if code == 2:
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1 and "9Z" in proc.stderr
    else:
        assert proc.stderr == ""


def test_one_parser_serves_every_run_of_a_process(tmp_path):
    # a success, a usage error that argparse reports and a negative grid
    # value, run in one process after one another, each give the exit
    # code and --out bytes of a fresh process; the parser is built once
    cases = [(["verify", "dihedral:2B"], 0),
             (["radical", "--t", "2", "--grid", "1"], 2),
             (["radical", "--grid", "-1/10,0"], 0)]
    cli._make_parser.cache_clear()
    for k, (argv, code) in enumerate(cases):
        here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
        assert run(argv + ["--out", str(here)]) == code
        assert _fresh_process(argv + ["--out", str(fresh)]).returncode == code
        assert here.exists() == fresh.exists() == (code == 0)
        if code == 0:
            assert here.read_bytes() == fresh.read_bytes()
    assert cli._make_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# usage errors -> exit code 2
# ---------------------------------------------------------------------------

def test_unknown_verb_exits_2(capsys):
    assert run(["bogus"]) == 2


def test_decimal_parameter_rejected(capsys):
    assert run(["radical", "--t", "0.1"]) == 2
    assert "exact rational" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["radical", "--t", "\u0661/\u0661\u0662"],
    ["norton", "--grid", "0,\uff11/\uff12"],
    ["certify", "majorana", "--t", "-\u0661"],
], ids=["arabic-indic", "full-width", "negative-arabic-indic"])
def test_non_ascii_digits_rejected(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "exact rational" in err


def test_unknown_dihedral_type_rejected(capsys):
    assert run(["verify", "dihedral:9Z"]) == 2


def test_unknown_target_rejected(capsys):
    assert run(["build", "nonsense"]) == 2


def test_missing_parameter_rejected(capsys):
    assert run(["radical"]) == 2
    assert "--t" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    assert run(["gram", "--frobnicate"]) == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert run(["catalog", "4A", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_empty_out_is_an_unwritable_path(capsys):
    # --out "" names a path that cannot be written; it is not a missing --out
    assert run(["catalog", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_grid_value_is_not_an_option(tmp_path):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert run(["norton", "--grid", "-1/10,0", "--out", str(spaced)]) == 0
    assert run(["norton", "--grid=-1/10,0", "--out", str(joined)]) == 0
    rep = json.loads(spaced.read_text())
    assert rep == json.loads(joined.read_text())
    assert [r["t0"] for r in rep] == ["-1/10", "0"]
    assert [r["norton_psd"] for r in rep] == [False, True]


@pytest.mark.parametrize("argv", [
    ["radical", "--t", "2", "--grid", "1"],
    ["norton", "--grid", "-1/10,0", "--t", "0"],
    ["certify", "majorana", "--t", "1/12", "--grid", "0"],
], ids=["radical", "norton", "certify"])
def test_t_and_grid_are_exclusive(argv, capsys):
    assert run(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["certify", "grid", "--grid=1/12"],
    ["certify", "v4a", "--t", "5"],
    ["norton", "--symbolic", "--t", "1/12"],
], ids=["certify-grid", "certify-v4a", "norton-symbolic"])
def test_points_where_none_are_read_are_rejected(argv, tmp_path, capsys):
    # these verbs read no point; a given one is an error, not ignored
    path = tmp_path / "rep.json"
    assert run(argv + ["--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "takes no --t or --grid" in err
    assert not path.exists()


_TYPES = "expected one of 2A, 2B, 3A, 3C, 4A, 4B, 5A, 6A"


@pytest.mark.parametrize("argv,message", [
    (["build", "dihedral:9Z"], "unknown target 'dihedral:9Z'; expected m4a, "
                               "m4b or dihedral:<TYPE> with TYPE one of"),
    (["verify", "dihedral:9Z"], "unknown target 'dihedral:9Z'; expected m4a, "
                                "m4b or dihedral:<TYPE> with TYPE one of"),
    # catalog takes a type only, so its hint names no other target
    (["catalog", "9Z"], f"unknown dihedral type '9Z'; {_TYPES}\n"),
    (["catalog", "m4a"], f"unknown dihedral type 'm4a'; {_TYPES}\n"),
], ids=["build", "verify", "catalog", "catalog-m4a"])
def test_unknown_dihedral_type_is_one_error_line(argv, message, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1


def _axis_checks(keys):
    return [name for k in keys
            for name in (f"a_{k} primitive", f"a_{k} fusion violations")]


_M4_KEYS = (1, -1, 2, -2, 3, -3)
_DIHEDRAL_KEYS = {"2A": (0, 1), "2B": (0, 1), "3A": (-1, 0, 1),
                  "3C": (-1, 0, 1), "4A": (-1, 0, 1, 2),
                  "4B": (-1, 0, 1, 2), "5A": (-2, -1, 0, 1, 2),
                  "6A": (-2, -1, 0, 1, 2, 3)}
# [TRIVIAL] the check names of every verification report, in order
VERIFY_CHECK_NAMES = {
    "m4a": (["dimension"] + _axis_checks(_M4_KEYS)
            + ["frobenius violations", "dependency violations"]
            + [f"{op} automorphism+isometry"
               for op in ("tau_1", "tau_2", "tau_3", "sigma", "pi")]),
    "m4b": (["dimension", "closure dim"] + _axis_checks(_M4_KEYS)
            + ["frobenius violations"]),
    **{f"dihedral:{name}": (_axis_checks(keys)
                            + ["frobenius violations",
                               "reference eigenvectors", "axis orbit size"])
       for name, keys in _DIHEDRAL_KEYS.items()},
}


@pytest.mark.parametrize("target", sorted(VERIFY_CHECK_NAMES))
def test_verify_report_check_names_in_order(target, tmp_path):
    path = tmp_path / "rep.json"
    assert run(["verify", target, "--out", str(path)]) == 0
    rep = json.loads(path.read_text())
    assert rep["target"] == target
    assert [c["name"] for c in rep["checks"]] == VERIFY_CHECK_NAMES[target]
