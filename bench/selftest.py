"""Fast self-test of the benchmark's own code; does not run the program.

    python3 bench/selftest.py

Checks that each oracle accepts a correct output and rejects a tampered
one, and that the tracer's self-time arithmetic is right on a synthetic
trace.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def expect(name, failures, should_fail):
    if bool(failures) != should_fail:
        wanted = "a rejection" if should_fail else "no failure"
        raise AssertionError(f"{name}: expected {wanted}, got {failures}")


def test_point_verdicts():
    points = workloads.GRID + workloads.seeded_points(7)
    theorem = {p: oracles.theorem(p) for p in points}
    norton = [{"t0": p, "norton_psd": theorem[p][2]} for p in points]
    expect("norton", oracles.check_norton(norton, points), False)
    flipped = copy.deepcopy(norton)
    flipped[4]["norton_psd"] = not flipped[4]["norton_psd"]
    expect("flipped norton verdict", oracles.check_norton(flipped, points),
           True)
    expect("missing point", oracles.check_norton(norton[:-1], points), True)

    definiteness = [{"t0": p, "pd": theorem[p][0], "psd": theorem[p][1],
                     "radical_dim": theorem[p][3]} for p in points]
    expect("definiteness", oracles.check_definiteness(definiteness, points),
           False)
    bad = copy.deepcopy(definiteness)
    bad[2]["pd"] = True            # t = 0 is only semidefinite
    expect("pd at 0", oracles.check_definiteness(bad, points), True)

    radical = [{"t0": p, "radical_dim": theorem[p][3]} for p in points]

    def rank_at(t):
        return 12 - oracles.theorem(t)[3]
    expect("radical", oracles.check_radical(radical, points, rank_at), False)
    expect("radical, own rank disagrees",
           oracles.check_radical(radical, points, lambda t: 12), True)

    majorana = [{"t0": p, "gram_pd": theorem[p][0],
                 "norton_psd": theorem[p][2],
                 "is_majorana": theorem[p][0] and theorem[p][2]}
                for p in points]
    expect("majorana", oracles.check_majorana(majorana, points), False)
    bad = copy.deepcopy(majorana)
    bad[0]["is_majorana"] = True
    expect("majorana at -1/10", oracles.check_majorana(bad, points), True)

    quotient = [{"t0": p, "radical_dim": 3, "quotient_dim": 9,
                 "fusion_ok": True, "gram_pd": True, "norton_psd": True,
                 "pass": True} for p in ("0", "1/6")]
    expect("quotient", oracles.check_quotients(quotient, ("0", "1/6")), False)
    quotient[1]["quotient_dim"] = 8
    expect("quotient dim 8", oracles.check_quotients(quotient, ("0", "1/6")),
           True)

    listing = [{"type": k, "dimension": v}
               for k, v in oracles.DIHEDRAL_DIMS.items()]
    expect("catalog", oracles.check_catalog(listing), False)
    listing[-1]["dimension"] = 7
    expect("6A of dim 7", oracles.check_catalog(listing), True)


def test_suites():
    req = oracles.v4a_requirements()
    report = {"target": "v4a", "pass": True,
              "checks": [{"name": n, "expected": v, "actual": v, "pass": True}
                         for n, v in req]}
    expect("v4a", oracles.check_suite(report, "v4a", req), False)
    bad = copy.deepcopy(report)
    bad["checks"][3]["actual"] = [1, 4, 4, 3, 0]    # v_12 eigenspace dims
    expect("wrong eigenspace dims", oracles.check_suite(bad, "v4a", req),
           True)
    bad = copy.deepcopy(report)
    bad["pass"] = False
    expect("pass flag false", oracles.check_suite(bad, "v4a", req), True)
    bad = copy.deepcopy(report)
    del bad["checks"][0]
    expect("missing check", oracles.check_suite(bad, "v4a", req), True)


def test_gram_report():
    import sympy
    closed = oracles.closed_form_det()
    t = sympy.Symbol("t")
    det = str(sympy.expand(closed)).replace("**", "^")
    report = {"determinant": det,
              "ldlt_diagonal": [str(closed * (t - 1)),
                                "(1)/(t - 1)"] + ["1"] * 10,
              "determinant_matches_closed_form": True,
              "interval_certificates": [{"interval": ["0", "1/6"],
                                         "verdict": "POSITIVE"}] * 12,
              "pass": True}
    expect("gram", oracles.check_gram_report(report), False)
    bad = copy.deepcopy(report)
    bad["determinant"] = "2*(" + det + ")"
    expect("perturbed determinant", oracles.check_gram_report(bad), True)
    bad = copy.deepcopy(report)
    bad["ldlt_diagonal"][5] = "1/2"
    expect("diagonal product", oracles.check_gram_report(bad), True)
    bad = copy.deepcopy(report)
    bad["interval_certificates"] = [{"interval": ["0", "1/6"],
                                     "verdict": "FAILS"}] * 12
    expect("failed certificate", oracles.check_gram_report(bad), True)


def _algebra_2b():
    """2B: a_0 a_0 = a_0, a_1 a_1 = a_1, a_0 a_1 = 0; identity form."""
    one, zero = Fraction(1), Fraction(0)
    table = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    gram = [[one, zero], [zero, one]]
    return table, gram


def test_plug_in():
    table, gram = _algebra_2b()
    expect("frobenius", oracles.check_frobenius(table, gram), False)
    bad = copy.deepcopy(table)
    bad[0][1] = [Fraction(1), Fraction(0)]   # a_0 a_1 = a_0
    expect("broken frobenius", oracles.check_frobenius(bad, gram), True)
    evs = (Fraction(1), Fraction(0))
    assert oracles.eigen_dims(table, 0, evs) == (1, 1)
    assert oracles.closure_dim(table, [0]) == 1
    assert oracles.closure_dim(bad, [0, 1]) == 2
    assert oracles.rank([[1, 2], [2, 4]]) == 1

    doc = {"labels": ["a", "b"],
           "mul_table": [[{"num": ["0", "1"], "den": ["1"]}] * 2] * 3,
           "gram": [{"num": ["1"], "den": ["1"]}] * 3}
    full = [[[{"num": ["0", "1"], "den": ["1"]}] * 2] * 2] * 2
    expect("commutative", oracles.check_commutative(doc, full, Fraction(3)),
           False)
    bad = copy.deepcopy(full)
    bad[1][0] = [{"num": ["1"], "den": ["1"]}] * 2
    expect("noncommutative", oracles.check_commutative(doc, bad, Fraction(3)),
           True)
    bad_doc = copy.deepcopy(doc)
    bad_doc["gram"][0] = {"num": ["1"], "den": ["0", "1"]}
    assert oracles.check_polynomial_entries(bad_doc)


def test_seeded_points():
    for seed in range(20):
        points = [Fraction(p) for p in workloads.seeded_points(seed)]
        assert points == [Fraction(p) for p in workloads.seeded_points(seed)]
        for ((lo, hi), digits), x in zip(workloads.POINT_SLOTS, points):
            assert Fraction(lo) < x < Fraction(hi), (seed, x)
            assert len(str(x.denominator)) == digits, (seed, x)
            assert x not in workloads.SPECIAL
        below, inside, above = map(Fraction, workloads.majorana_points(seed))
        assert below < 0 < inside < Fraction(1, 6) < above, (seed, points)
        t0 = Fraction(workloads.check_point(seed))
        assert t0 not in workloads.SPECIAL


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 9.0, 0]]
    st = self_times(spans)
    assert st == {"root": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}, st
    # overlapping children cover their union only once
    st = self_times([["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0],
                     ["y", 3.0, 7.0, 0]])
    assert st["p"] == 4.0, st

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    events = [("enter", "root", 0), ("enter", "a", 1), ("enter", "c", 2),
              ("exit", None, 3), ("exit", None, 4), ("enter", "b", 5),
              ("exit", None, 9), ("exit", None, 10)]
    for kind, name, now in events:
        clock.now = float(now)
        tracer.enter(name) if kind == "enter" else tracer.exit()
    online = {k: v[2] for k, v in tracer.stats.items()}
    assert online == self_times(tracer.spans) == {"root": 3.0, "a": 2.0,
                                                  "c": 1.0, "b": 4.0}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]

    # a capped span list keeps exact online self times
    clock = FakeClock()
    tracer = Tracer(clock=clock, max_spans=2)
    for kind, name, now in events:
        clock.now = float(now)
        tracer.enter(name) if kind == "enter" else tracer.exit()
    assert {k: v[2] for k, v in tracer.stats.items()} == online
    assert tracer.dropped == 2 and tracer.spans[1][3] == 0


def test_wrapping():
    import types
    mod = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2
    leaf.__module__ = outer.__module__ = "fake_layer"
    mod.leaf, mod.outer = leaf, outer
    user = types.ModuleType("fake_user")
    user.leaf = leaf                    # a "from fake_layer import leaf"
    tracer = Tracer()
    tracer.wrap_module("fake", mod, [mod, user])
    assert mod.outer(1) == 4 and user.leaf(1) == 2
    assert tracer.stats["fake.leaf"][0] == 2
    assert tracer.stats["fake.outer"][0] == 1
    tracer.uninstall()
    assert mod.leaf is leaf and user.leaf is leaf


def main():
    tests = [test_point_verdicts, test_suites, test_gram_report, test_plug_in,
             test_seeded_points, test_self_times, test_wrapping]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
