"""Constructions made once per process: the dihedral catalog, M_4B, the
fusion rules and the published eigenvectors of the v_ij of M_4A.  Each
is made on first use, never at import or inside build_m4a; the records
around them are fresh on every call, and every check runs on every
call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from axia import catalog, certify as cert, m4
from axia.catalog import (DIHEDRAL_TYPES, dihedral, dihedral_seeds, f4a_rule,
                          jordan_half_rule, monster_rule)
from axia.cli import run
from axia.completion import complete_algebra
from axia.scalars import QQ, QT

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cold():
    """The catalog and M_4B caches emptied, as at the start of a
    process."""
    catalog._completed.cache_clear()
    m4._m4b.cache_clear()


def _counting(monkeypatch, module, calls):
    """Count module.complete_algebra calls by their basis labels."""
    complete = module.complete_algebra

    def counting(field, labels, seeds, generators):
        calls.append(tuple(labels))
        return complete(field, labels, seeds, generators)
    monkeypatch.setattr(module, "complete_algebra", counting)


def test_each_algebra_is_completed_once_per_process(cold, monkeypatch,
                                                    tmp_path):
    calls = []
    _counting(monkeypatch, catalog, calls)
    _counting(monkeypatch, m4, calls)
    out = str(tmp_path / "report.json")
    targets = [f"dihedral:{name}" for name in DIHEDRAL_TYPES] + ["m4b"]
    for _ in range(3):
        for target in targets:
            assert run(["verify", target, "--out", out]) == 0
    expected = [tuple(dihedral_seeds(name)[0]) for name in DIHEDRAL_TYPES]
    assert calls == expected + [m4.M4B_LABELS]


def test_records_are_fresh_around_shared_constructions():
    for name in DIHEDRAL_TYPES:
        first, second = dihedral(name), dihedral(name)
        assert first is not second
        assert first.symmetries is not second.symmetries
        assert first.algebra is second.algebra and first.form is second.form
    first, second = m4.build_m4b(), m4.build_m4b()
    assert first is not second
    assert first.symmetries is not second.symmetries
    assert first.algebra is second.algebra and first.form is second.form


def test_rebinding_symmetries_leaves_the_next_record_whole():
    for name in DIHEDRAL_TYPES:
        d = dihedral(name)
        d.symmetries = {}
        assert set(dihedral(name).symmetries) == {"tau_0", "swap_01"}
        dihedral(name).symmetries.clear()
        assert set(dihedral(name).symmetries) == {"tau_0", "swap_01"}
    m4.build_m4b().symmetries.clear()
    assert set(m4.build_m4b().symmetries) == {
        "tau_1", "tau_2", "tau_3", "sigma", "pi"}


@pytest.mark.parametrize("name", DIHEDRAL_TYPES)
def test_cached_catalog_equals_a_fresh_completion(name):
    # the oracle completes the seeds again, outside the cache
    labels, seeds, generators = dihedral_seeds(name)
    alg, form = complete_algebra(QQ, labels, seeds, list(generators.values()))
    d = dihedral(name)
    assert d.algebra.labels == alg.labels
    assert d.algebra.mul_table == alg.mul_table
    assert d.form.gram == form.gram
    assert d.symmetries == generators


def test_cached_m4b_equals_a_fresh_completion():
    syms = m4.m4_symmetries(m4.M4B_LABELS, QQ)
    alg, form = complete_algebra(QQ, m4.M4B_LABELS,
                                 m4._dihedral_seeds_on_12("4B", "a_rho"),
                                 list(syms.values()))
    m4b = m4.build_m4b()
    assert m4b.algebra.labels == alg.labels
    assert m4b.algebra.mul_table == alg.mul_table
    assert m4b.form.gram == form.gram
    assert m4b.symmetries == syms


def test_each_rule_is_built_once():
    assert monster_rule() is monster_rule()
    assert monster_rule(QT) is monster_rule(QT)
    assert monster_rule(QT) is not monster_rule()
    assert jordan_half_rule(QT) is jordan_half_rule(QT)
    assert f4a_rule() is f4a_rule()


def test_v_eigenvectors_are_cached_with_the_build(monkeypatch, m4a):
    monkeypatch.setattr(m4, "_M4A_CACHE", {"build": m4a})
    first = m4.reference_v_eigenvectors(1, 2)
    assert set(m4._M4A_CACHE) == {"build", "v_12 eigenvectors"}
    # the caller's containers are its own
    first[QT.t].clear()
    first.pop(QT.of(0))
    again = m4.reference_v_eigenvectors(1, 2)
    assert again == m4._reference_v_eigenvectors(1, 2)
    assert len(again[QT.t]) == 1 and len(again[QT.of(0)]) == 4
    m4._M4A_CACHE.clear()
    assert m4.reference_v_eigenvectors(1, 2) == again
    assert set(m4._M4A_CACHE) == {"build", "v_12 eigenvectors"}


def test_every_verdict_runs_on_every_call(monkeypatch, tmp_path):
    # only constructions are cached: each repeated run decides its
    # automorphisms, fusion and Frobenius identities again
    counts = {}
    for name in ("is_automorphism", "verify_fusion", "verify_frobenius"):
        fn = getattr(cert, name)

        def counting(*args, _name=name, _fn=fn):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(cert, name, counting)
    out = str(tmp_path / "report.json")
    seen = []
    for _ in range(2):
        counts.clear()
        for target in ("dihedral:6A", "m4b"):
            assert run(["verify", target, "--out", out]) == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert set(seen[0]) == {"is_automorphism", "verify_fusion",
                            "verify_frobenius"}


REPEATED = ([["verify", f"dihedral:{name}"] for name in DIHEDRAL_TYPES]
            + [["verify", "m4b"], ["certify", "v4a"],
               ["certify", "quotient", "--grid=0,1/6"],
               ["certify", "majorana", "--grid=-1/100,1/12"]])


def test_repeated_runs_write_the_same_bytes(cold, monkeypatch, tmp_path):
    # the first pass builds every construction, the second reads them
    monkeypatch.setattr(m4, "_M4A_CACHE", {})
    passes = []
    for k in range(2):
        written = []
        for i, argv in enumerate(REPEATED):
            out = tmp_path / f"{k}-{i}.json"
            code = run(argv + ["--out", str(out)])
            written.append((code, out.read_bytes()))
        passes.append(written)
    assert passes[0] == passes[1]
    assert [code for code, _ in passes[0]] == [0] * len(REPEATED)


def test_nothing_is_made_at_import_or_inside_build_m4a():
    script = (
        "from axia import catalog, m4\n"
        "caches = (catalog._completed, m4._m4b, catalog.monster_rule,\n"
        "          catalog.jordan_half_rule, catalog.f4a_rule)\n"
        "sizes = lambda: [c.cache_info().currsize for c in caches]\n"
        "assert sizes() == [0] * 5, sizes()\n"
        "m4.build_m4a()\n"
        "assert sizes() == [0] * 5, sizes()\n"
        "assert set(m4._M4A_CACHE) == {'build'}, set(m4._M4A_CACHE)\n")
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
