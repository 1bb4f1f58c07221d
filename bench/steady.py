"""Steadiness of the benchmark: runs each workload with several seeds and
reports each end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json, the share of failed operations, and the tracing
overhead (one traced run minus the untraced median).

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME]...
                            [--no-trace]

Run from the root of a source checkout.  Runs are sequential, one process
at a time.  The summary is printed and written to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(int(trace))], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed}: exit code "
                           f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(workload, seed, spec["run_seconds"], False)
            runs.append(res)
            print(f"{workload} seed {seed}: "
                  + "  ".join(f"{k} {v['value']:.4f}"
                              for k, v in res["metrics"].items())
                  + f"  failed {res['failed']}/{res['attempted']}"
                  + ("" if res["correct"] else "  INCORRECT"), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            rows[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": rel,
                "bound": metric["bound"],
                "steady": rel < metric["bound"] / 3, "values": values}
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry = {"metrics": rows, "failed_shares": sorted(shares),
                 "all_correct": all(r["correct"] for r in runs)}
        if not args.no_trace:
            traced = run_once(workload, args.first_seed, spec["run_seconds"],
                              True)["metrics"]
            entry["tracing_overhead_s"] = {
                "setup_s": traced["trace.setup_s"]["value"]
                - rows["setup_s"]["median"],
                "verdicts_s": traced["trace.verdicts_s"]["value"]
                - rows["verdicts_s"]["median"]}
            entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
        summary[workload] = entry

        print(f"\n{workload}: {len(runs)} runs, failed shares "
              f"{entry['failed_shares']}, all correct {entry['all_correct']}")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, row in rows.items():
            print(f"  {name:<14} {row['median']:10.4f} {row['q1']:10.4f} "
                  f"{row['q3']:10.4f} {row['spread']:8.4f} "
                  f"{row['bound'] / 3:8.4f}"
                  + ("" if row["steady"] else "  NOT STEADY"))
        for name, value in entry.get("tracing_overhead_s", {}).items():
            print(f"  tracing overhead on {name}: {value:+.3f} s "
                  f"({value / rows[name]['median']:+.1%})")
        print(flush=True)

    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
