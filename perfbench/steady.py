#!/usr/bin/env python3
"""Steadiness check: runs each workload as two sets of runs and compares them.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--seconds S]

Run it from the root of the repository. Every run gets its own seed
(set A: 1..runs, set B: 1001..1000+runs). For each end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether the two sets
agree: each spread (setup_s excepted) within the metric's bound, and set
B's median no worse than set A's by more than the bound. It also checks
that the share of failed operations is the same in both sets. Exit code
1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload of BENCHMARK.json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        sets = []
        for base in (0, 1000):
            results = [run_once(workload, base + i + 1, args.seconds) for i in range(args.runs)]
            sets.append(results)
        correct = all(r["correct"] for s in sets for r in s)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds:g} s each, "
              f"all correct: {correct}, failed share A {shares[0]:.6f} B {shares[1]:.6f}")
        ok &= correct and shares[0] == shares[1]
        print(f"  {'metric':<16} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for label, s in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in s]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                steady = name == "setup_s" or sp <= bound
                ok &= steady
                print(f"  {name:<16} {label:<3} {q1:>12.4f} {q2:>12.4f} {q3:>12.4f} "
                      f"{sp:>8.3f} {bound:>6.2f}  {'ok' if steady else 'SPREAD > BOUND'}"
                      f"{'' if sp <= bound / 3 else ' (above a third of the bound)'}")
            a, b = medians
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok &= agree
            pooled = spread([r["metrics"][name]["value"] for s in sets for r in s])[3]
            print(f"  {name:<16} B vs A: {worse:+.3f} worse  {'agree' if agree else 'DISAGREE'}; "
                  f"spread over all {2 * args.runs} runs {pooled:.3f}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
