"""Steadiness check: run each workload several times, each with another
seed, and compare every end-to-end metric's spread with its bound.

    python3 bench/steady.py [--runs 10]

Run k uses seed k, for k = 1 .. --runs, on every workload of
BENCHMARK.json. For each workload and metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median
and that spread as a share of the metric's bound in BENCHMARK.json.
Use it to set the bounds (a bound should be at least three spreads)
and to check that a machine is quiet before comparing two commits.
With --runs 1 it is the one command that runs every workload once and
prints each end-to-end metric with its unit and the operations
attempted and failed. The last line is a JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(
            "%s: %d runs, attempted %d, failed %d, correct %s, failed shares %s"
            % (
                workload, len(results), sum(r["attempted"] for r in results),
                sum(r["failed"] for r in results), correct, shares,
            )
        )
        print("  %-14s %-8s %12s %12s %12s %8s %6s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values,
            }
            print(
                "  %-14s %-8s %12.6g %12.6g %12.6g %8.4f %6.3f"
                % (name, results[0]["metrics"][name]["unit"], med, q1, q3, spread, bound)
            )
        summary[workload] = {"correct": correct, "failed_shares": shares, "metrics": rows}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
