#!/usr/bin/env python3
"""Run one workload of the benchmark repeatedly and report how steady it is.

Usage (from the repository root):

    python3 stackbench/steady.py --workload synth-library [--runs 10] [--first-seed 1]

Each run uses the next seed. For every end-to-end metric in BENCHMARK.json
the script prints the median, the quartiles (statistics.quantiles, n=4),
the spread (Q3 - Q1) / median, and the metric's bound; it also prints the
share of failed operations. It exits non-zero if a run fails, reports
incorrect output, or any metric's spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(config, workload, seed, seconds):
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = args.seconds or config["run_seconds"]

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(config, args.workload, seed, seconds)
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\nfailed share per run: {sorted(shares)}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in config["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3, s = spread(values)
        verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
        if s > bound:
            ok = False
        print(f"{name:<16} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.3f} {bound:>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
