"""Shared fixtures and helpers for the test suite.

Oracle conventions used throughout the tests:

  [TRIVIAL]  values asserted directly (definitions, tiny hand computations)
  [DERIVED]  values computed by an independent oracle (sympy, brute force,
             plug-in evaluation) and frozen into the test
  [PUBLISHED] closed-form values from the published tables the package
             reproduces
"""

import importlib.util
from pathlib import Path

import pytest

from axia import m4
from axia.catalog import DIHEDRAL_TYPES, dihedral
from axia.cli import run
from axia.algebra import Algebra, BilinearForm
from axia.linalg import upper_pairs
from axia.m4 import build_m4a, build_m4b
from axia.scalars import QT, Polynomial, RationalFunction, rat


def bench_workloads():
    """bench/workloads.py, loaded from its file; it imports nothing from
    axia."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rf(num_coeffs, den_coeffs=("1",)):
    """RationalFunction from ascending coefficient strings."""
    return RationalFunction(Polynomial([rat(c) for c in num_coeffs]),
                            Polynomial([rat(c) for c in den_coeffs]))


def poly(*coeffs):
    """Polynomial from ascending coefficient strings/ints."""
    return Polynomial([rat(c) for c in coeffs])


@pytest.fixture(scope="session")
def m4a():
    return build_m4a()


@pytest.fixture(scope="session")
def m4b():
    return build_m4b()


@pytest.fixture(scope="session")
def catalog():
    return {name: dihedral(name) for name in DIHEDRAL_TYPES}


@pytest.fixture(scope="session")
def written(tmp_path_factory):
    """The exit code and --out bytes of a CLI command line, run once per
    session: the golden reports and test_cli share the slow ones, such as
    norton --symbolic."""
    cache = {}

    def get(command):
        if command not in cache:
            out = tmp_path_factory.mktemp("report") / "report.json"
            code = run(command.split() + ["--out", str(out)])
            cache[command] = code, out.read_bytes()
        return cache[command]
    return get


def tamper_m4a_seed(monkeypatch, pair, label, delta="1/1000"):
    """Build M_4A from its seeds with delta added to the label coordinate
    of the seed on pair, in place of the cached build."""
    seeds = []
    for seed_pair, product, form_value in m4.m4a_seeds():
        if seed_pair == pair:
            product = dict(product)
            product[label] = QT.of(product.get(label, 0)) + QT.of(delta)
        seeds.append((seed_pair, product, form_value))
    monkeypatch.setattr(m4, "m4a_seeds", lambda: seeds)
    monkeypatch.setattr(m4, "_M4A_CACHE", {})


def tampered_table(alg, i, j, k, delta):
    """alg with delta added to coordinate k of e_i e_j, i <= j."""
    products = {(a, b): list(alg.mul_table[a][b])
                for a, b in upper_pairs(alg.dim)}
    products[i, j][k] = products[i, j][k] + delta
    return Algebra(alg.field, alg.labels, products)


def tampered_gram(form, i, j, delta):
    """form with delta added to <e_i, e_j>, i <= j."""
    gram = form.gram.data
    values = {(a, b): gram[a][b] for a, b in upper_pairs(len(gram))}
    values[i, j] = values[i, j] + delta
    return BilinearForm(form.field, values)
