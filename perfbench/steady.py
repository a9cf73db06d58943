#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
print per end-to-end metric the median, the quartiles and their spread
(Q3 - Q1, as a share of the median) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1]

Runs use seeds 1..runs, every workload of BENCHMARK.json and its
run_seconds.  With --sets 2 the runs are made twice and the second
set's median is compared with the first's, as a later change would be
compared with its parent.  Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        for s in range(args.sets):
            runs = [run_once(workload, seed, seconds)
                    for seed in range(1, args.runs + 1)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"\n{workload} set {s + 1}: {args.runs} runs x "
                  f"{seconds} s, failed share {sorted(shares)}")
            print(f"  {'metric':<14}{'median':>14}{'Q1':>14}{'Q3':>14}"
                  f"{'spread':>9}{'bound':>8}")
            set_medians = {}
            for m in metrics:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                med, q1, q3, spread = summary(vals)
                set_medians[m["name"]] = med
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  over bound/3"
                print(f"  {m['name']:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{m['bound']:>8.2f}{flag}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print(f"  set {s + 1} vs set 1 (worse by, share of median):")
            for m in metrics:
                a, b = medians[0][m["name"]], medians[s][m["name"]]
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                flag = "  OVER BOUND" if worse > m["bound"] else ""
                ok = ok and not flag
                print(f"    {m['name']:<14}{worse:>9.3f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
