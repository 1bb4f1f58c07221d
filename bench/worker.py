"""One workload in a fresh, single-threaded process.

Started by ``run.py``, which times set-up from the moment it starts this
process to the ``ready`` line: interpreter start, ``import axia`` and the
cold ``build_m4a``.  Then the workload's operations run in a closed loop,
one after another, in whole rounds.  A round starts only if, at the mean
round time so far, it ends within ``--seconds``; the first round always
runs, and a traced run makes only that one.  Each operation is a call a
user waits on: ``axia.cli.run([...])`` with ``--out`` to a file, or a
public library function.  Only the calls are timed; the exports the checks
need are written after the last round.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Op:
    """One timed call; ``metric`` names the group it is reported under."""

    def __init__(self, metric, name, call):
        self.metric, self.name, self.call = metric, name, call


def _cli_op(cli, out_dir, metric, name, argv):
    path = str(out_dir / f"{name}.json")
    return Op(metric, name, lambda: cli.run(argv + ["--out", path]))


def m4a_symbolic_ops(axia_mods, out_dir, seed):
    cli = axia_mods["cli"]
    return [
        _cli_op(cli, out_dir, "verify_m4a_s", "verify-m4a", ["verify", "m4a"]),
        _cli_op(cli, out_dir, "certify_v4a_s", "certify-v4a",
                ["certify", "v4a"]),
        _cli_op(cli, out_dir, "gram_s", "gram", ["gram"]),
        _cli_op(cli, out_dir, "export_m4a_s", "build-m4a", ["build", "m4a"]),
    ]


def point_grid_ops(axia_mods, out_dir, seed):
    cli, cert, serialize = (axia_mods["cli"], axia_mods["certify"],
                            axia_mods["serialize"])
    points = list(workloads.GRID) + list(workloads.seeded_points(seed))

    def definiteness():
        serialize.dump_json(cert.definiteness_report(points),
                            str(out_dir / "definiteness.json"))
        return 0

    ops = [
        Op("definiteness_grid_s", "definiteness", definiteness),
        _cli_op(cli, out_dir, "definiteness_grid_s", "radical",
                ["radical", "--grid=" + ",".join(points)]),
        _cli_op(cli, out_dir, "norton_grid_s", "norton-grid",
                ["norton", "--grid=" + ",".join(workloads.NORTON_POINTS)]),
        _cli_op(cli, out_dir, "majorana_quotient_s", "certify-majorana",
                ["certify", "majorana",
                 "--grid=" + ",".join(workloads.majorana_points(seed))]),
        _cli_op(cli, out_dir, "majorana_quotient_s", "certify-quotient",
                ["certify", "quotient",
                 "--grid=" + ",".join(workloads.QUOTIENT_POINTS)]),
        _cli_op(cli, out_dir, "catalog_verify_s", "catalog", ["catalog"]),
    ]
    for name in axia_mods["catalog"].DIHEDRAL_TYPES:
        ops.append(_cli_op(cli, out_dir, "catalog_verify_s",
                           f"verify-dihedral-{name}",
                           ["verify", f"dihedral:{name}"]))
    ops.append(_cli_op(cli, out_dir, "catalog_verify_s", "verify-m4b",
                       ["verify", "m4b"]))
    return ops


OPS = {"m4a-symbolic": m4a_symbolic_ops, "point-grid": point_grid_ops}


def export_for_checks(axia_mods, out_dir):
    """The symbolic M_4A as JSON, with its full product table: the checks
    evaluate it with stdlib fractions, apart from the program."""
    m4a = axia_mods["m4"].build_m4a()
    alg, field = m4a.algebra, m4a.algebra.field
    doc = axia_mods["serialize"].algebra_to_json(alg, m4a.form)
    doc["full_mul_table"] = [[[field.to_json(x) for x in alg.mul_table[i][j]]
                              for j in range(alg.dim)]
                             for i in range(alg.dim)]
    axia_mods["serialize"].dump_json(doc, str(out_dir / "m4a-export.json"))


def main(argv):
    workload, seed, seconds, trace, out_dir = argv
    seconds, trace, out_dir = float(seconds), trace == "1", Path(out_dir)
    # The protocol goes to the original stdout; anything the program
    # prints goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    import axia
    axia_mods = {layer: importlib.import_module(f"axia.{layer}")
                 for layer in LAYERS}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(axia_mods, namespaces=[axia])

    def timed(name, fn):
        if tracer is None:
            return fn()
        with tracer.span(name):
            return fn()

    timed("setup", axia_mods["m4"].build_m4a)
    proto.write("ready\n")
    proto.flush()

    ops = OPS[workload](axia_mods, out_dir, seed)
    # A traced run makes one round, so its counts repeat exactly from run
    # to run, however fast the host is.
    rounds = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds and (trace or elapsed * (len(rounds) + 1) / len(rounds)
                       > seconds):
            break
        results = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                code = timed(f"op.{op.name}", op.call)
                error = None if code in (0, 1) else f"exit code {code}"
            except Exception as exc:  # a failed operation is counted
                error = f"{type(exc).__name__}: {exc}"
            results.append({"op": op.name, "metric": op.metric,
                            "seconds": time.perf_counter() - t0,
                            "error": error})
        rounds.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        with open(out_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    export_for_checks(axia_mods, out_dir)
    with open(out_dir / "worker.json", "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_rss_mb,
                   "backend": axia_mods["scalars"].Rational.__module__,
                   "python": sys.version.split()[0]}, fh)
    proto.write("done\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
