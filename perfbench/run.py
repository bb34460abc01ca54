#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload covid_stream --seed 1 --seconds 30 --trace 0

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default `.bench_build`), with Cargo's own state kept
under it too, so nothing is written outside the checkout. The last line
of standard output is the run's JSON result; with `--trace 1` the spans
of the run are written to `<target>/perfbench-spans/`.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `reference` prints the README's reference figures; it is not a
# workload of BENCHMARK.json.
WORKLOADS = ("covid_stream", "xref_closure", "serve_mixed", "reference")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.jsonl")
        cmd += ["--spans", spans]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, timeout=170).returncode)


if __name__ == "__main__":
    main()
