"""The axia benchmark: time to each verdict, with outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh,
single-threaded worker process (``worker.py``) that imports the program
from ``src/``.  This process times set-up (worker start to the end of the
cold ``build_m4a``), waits for the worker's closed loop of calls, checks
every output against ``oracles.py`` outside the timed region, prints each
metric with its unit, and prints one JSON object as its last line.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the worker wraps the program's public functions (``tracer.py``) and the
metrics are the per-layer ones.  Results and traces are kept under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

DEADLINE_S = 170


def _calls(key):
    return lambda tr: tr["stats"].get(key, {}).get("calls", 0)


def _self(key):
    return lambda tr: tr["stats"].get(key, {}).get("self_s", 0.0)


def _count(key):
    return lambda tr: tr["counts"].get(key, 0)


def _ratio(num, den):
    return lambda tr: num(tr) / den(tr) if den(tr) else 0.0


def _layer_self(layer):
    return lambda tr: sum(v["self_s"] for k, v in tr["stats"].items()
                          if k.startswith(layer + "."))


# Per-layer metrics: (name, unit, how to read it from the trace).  A self
# time that would read 0 on one workload is reported as a call count; its
# self time is in the printed breakdown and the trace file.
PER_LAYER = [
    ("scalars.poly_gcd.calls", "count", _calls("scalars.poly_gcd")),
    ("scalars.poly_gcd.self_s", "s", _self("scalars.poly_gcd")),
    ("scalars.poly_gcd.nontrivial_ratio", "ratio",
     _ratio(_count("scalars.poly_gcd.nontrivial"),
            _calls("scalars.poly_gcd"))),
    ("scalars.RationalFunction.calls", "count",
     _count("scalars.RationalFunction")),
    ("scalars.max_degree", "degree", lambda tr: tr["max_degree"]),
    ("scalars.Fraction.calls", "count", _count("scalars.Fraction")),
    ("linalg.Matrix.matvec.calls", "count", _calls("linalg.Matrix.matvec")),
    ("linalg.Matrix.matvec.self_s", "s", _self("linalg.Matrix.matvec")),
    ("linalg.Matrix.matvec.nonzero_ratio", "ratio",
     _ratio(_count("linalg.Matrix.matvec.useful_mults"),
            _count("linalg.Matrix.matvec.mults"))),
    ("linalg.Matrix.matmul.self_s", "s", _self("linalg.Matrix.matmul")),
    ("linalg.ldlt.calls", "count", _calls("linalg.ldlt")),
    ("linalg.ldlt.self_s", "s", _self("linalg.ldlt")),
    ("linalg.rref.calls", "count", _calls("linalg.rref")),
    ("linalg.rref.self_s", "s", _self("linalg.rref")),
    ("linalg.determinant.calls", "count", _calls("linalg.determinant")),
    ("completion.complete_table.self_s", "s",
     _self("completion.complete_table")),
    ("completion.mulclose.self_s", "s", _self("completion.mulclose")),
]
for _fn in ("axis_decomposition", "verify_fusion", "verify_frobenius"):
    PER_LAYER += [(f"algebra.{_fn}.calls", "count", _calls(f"algebra.{_fn}")),
                  (f"algebra.{_fn}.self_s", "s", _self(f"algebra.{_fn}"))]
PER_LAYER += [
    ("algebra.is_automorphism.calls", "count",
     _calls("algebra.is_automorphism")),
    ("algebra.subalgebra_closure.self_s", "s",
     _self("algebra.subalgebra_closure")),
    ("algebra.radical.calls", "count", _calls("algebra.radical")),
    ("algebra.quotient.calls", "count", _calls("algebra.quotient")),
    ("algebra.Algebra.mul.calls", "count", _calls("algebra.Algebra.mul")),
    ("m4.specialize_m4a.calls", "count", _calls("m4.specialize_m4a")),
    ("certify.norton_matrix.rationals.calls", "count",
     _calls("certify.norton_matrix[rationals]")),
    ("certify.norton_matrix.rational_functions.calls", "count",
     _calls("certify.norton_matrix[rational_functions]")),
    ("certify.certify_interval.calls", "count",
     _calls("certify.certify_interval")),
    ("catalog.dihedral.self_s", "s", _self("catalog.dihedral")),
    ("serialize.dump_json.self_s", "s", _self("serialize.dump_json")),
]
PER_LAYER += [(f"{layer}.self_s", "s", _layer_self(layer)) for layer in LAYERS]
PER_LAYER += [
    ("trace.setup_s", "s", lambda tr: tr["setup_s"]),
    ("trace.verdicts_s", "s", lambda tr: tr["verdicts_s"]),
]


class BenchError(Exception):
    """The run could not produce a result."""


def run_worker(workload, seed, seconds, trace, out_dir):
    """Start the worker, time its set-up, wait for it; returns setup_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds), str(int(trace)), str(out_dir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(DEADLINE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        done = proc.stdout.readline()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or done.strip() != "done" or proc.returncode:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    return setup_s


def load(out_dir, name):
    with open(out_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_m4a_symbolic(out_dir, seed, ok):
    failures = []
    export = load(out_dir, "m4a-export")
    t0 = Fraction(workloads.check_point(seed))
    if "build-m4a" in ok:
        doc = load(out_dir, "build-m4a")
        failures += oracles.check_polynomial_entries(doc)
        failures += oracles.check_gram_matrix(doc)
        table, gram = oracles.specialize_export(doc, t0)
        failures += oracles.check_commutative(doc, export["full_mul_table"],
                                              t0)
        failures += oracles.check_frobenius(table, gram)
        failures += oracles.check_eigenspaces(doc, table, t0)
    if "gram" in ok:
        failures += oracles.check_gram_report(load(out_dir, "gram"))
    if "verify-m4a" in ok:
        failures += oracles.check_suite(load(out_dir, "verify-m4a"), "m4a",
                                        oracles.m4a_requirements())
    if "certify-v4a" in ok:
        failures += oracles.check_suite(load(out_dir, "certify-v4a"), "v4a",
                                        oracles.v4a_requirements())
    return failures


def check_point_grid(out_dir, seed, ok):
    failures = []
    points = workloads.GRID + workloads.seeded_points(seed)
    export = load(out_dir, "m4a-export")
    if "definiteness" in ok:
        failures += oracles.check_definiteness(load(out_dir, "definiteness"),
                                               points)
    if "radical" in ok:
        failures += oracles.check_radical(load(out_dir, "radical"), points,
                                          oracles.sympy_rank_at(export))
    if "norton-grid" in ok:
        failures += oracles.check_norton(load(out_dir, "norton-grid"),
                                         workloads.NORTON_POINTS)
    if "certify-majorana" in ok:
        failures += oracles.check_majorana(load(out_dir, "certify-majorana"),
                                           workloads.majorana_points(seed))
    if "certify-quotient" in ok:
        failures += oracles.check_quotients(load(out_dir, "certify-quotient"),
                                            workloads.QUOTIENT_POINTS)
    if "catalog" in ok:
        failures += oracles.check_catalog(load(out_dir, "catalog"))
    for name in oracles.DIHEDRAL_DIMS:
        if f"verify-dihedral-{name}" in ok:
            failures += oracles.check_suite(
                load(out_dir, f"verify-dihedral-{name}"), f"dihedral:{name}")
    if "verify-m4b" in ok:
        failures += oracles.check_suite(
            load(out_dir, "verify-m4b"), "m4b",
            [("dimension", 7), ("closure dim", 7)])
    return failures


CHECKS = {"m4a-symbolic": check_m4a_symbolic, "point-grid": check_point_grid}


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "axia" / "__init__.py").is_file():
        raise BenchError(f"no axia sources under {ROOT / 'src'}")
    results = ROOT / ".bench_out"
    out_dir = results / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup_s = run_worker(workload, seed, seconds, trace, out_dir)
    worker = load(out_dir, "worker")
    rounds = worker["rounds"]
    ops = [op for rnd in rounds for op in rnd]
    failed_ops = [op for op in ops if op["error"]]
    last_ok = {op["op"] for op in rounds[-1] if not op["error"]}
    failures = CHECKS[workload](out_dir, seed, last_ok)

    # Time per round over the whole run.  The host's speed swings last
    # seconds, so round times are not independent samples; their mean
    # spread less from run to run than their median did.
    round_s = [sum(op["seconds"] for op in rnd) for rnd in rounds]
    verdicts_s = statistics.fmean(round_s)
    verbs = {m: statistics.fmean(sum(op["seconds"] for op in rnd
                                     if op["metric"] == m) for rnd in rounds)
             for m in dict.fromkeys(op["metric"] for op in rounds[0])}
    if trace:
        tr = load(out_dir, "trace")
        tr["setup_s"], tr["verdicts_s"] = setup_s, verdicts_s
        metrics = {name: {"value": read(tr), "unit": unit}
                   for name, unit, read in PER_LAYER}
        shutil.copy(out_dir / "trace.json",
                    results / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = {"verdicts_s": {"value": verdicts_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": worker["peak_rss_mb"],
                                   "unit": "MB"}}
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failed_ops), "metrics": metrics}

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"rounds {len(rounds)}  Python {worker['python']}  "
          f"backend {worker['backend']}")
    print(f"  {'setup_s':<40} {setup_s:12.4f} s")
    print(f"  {'verdicts_s':<40} {verdicts_s:12.4f} s")
    for m, v in verbs.items():
        print(f"    {m:<38} {v:12.4f} s")
    print(f"  {'peak_rss_mb':<40} {worker['peak_rss_mb']:12.1f} MB")
    if trace:
        print("  per layer (traced run):")
        for name, m in metrics.items():
            print(f"    {name:<48} {m['value']:14.6g} {m['unit']}")
        print("  every traced function, by self time:")
        for name, st in sorted(tr["stats"].items(),
                               key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<48} calls {st['calls']:>8}  "
                  f"self {st['self_s']:10.4f} s  "
                  f"total {st['total_s']:10.4f} s")
    for op in failed_ops:
        print(f"  FAILED {op['op']}: {op['error']}")
    for msg in failures:
        print(f"  INCORRECT {msg}")
    print(f"  attempted {len(ops)}  failed {len(failed_ops)}  "
          f"correct {not failures}")

    with open(results / f"result-{workload}-seed{seed}-trace{int(trace)}.json",
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, verbs=verbs, round_s=round_s,
                       failures=failures,
                       errors=[op["error"] for op in failed_ops]), fh,
                  indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
