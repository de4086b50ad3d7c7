#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with another seed,
and print each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload flat-industry3 --runs 10
        [--first-seed 1] [--seconds 25]

Run from the root of the repository.  The spread is the distance between
the first and the third quartile as a share of the median, with the
quartiles of Python's statistics.quantiles(values, n=4); an A/A pair is
two such sets on identical code, and each end-to-end metric's bound in
BENCHMARK.json must cover both the spread and the move of the median
between the two sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def steal_s():
    """Seconds the hypervisor has given to other guests, per CPU of this
    machine, from the steal column of /proc/stat (empty where it cannot
    be read)."""
    try:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line.startswith("cpu") and line[3].isdigit()]
        return [int(r[8]) / os.sysconf("SC_CLK_TCK") for r in rows]
    except (OSError, IndexError, ValueError):
        return []


def run_once(workload, seed, seconds):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0, s0 = time.monotonic(), steal_s()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    wall = time.monotonic() - t0
    steal = [b - a for a, b in zip(s0, steal_s())]
    return json.loads(out.strip().splitlines()[-1]), wall, steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        res, wall, steal = run_once(args.workload, seed, args.seconds)
        results.append({"seed": seed, "wall_s": wall, "result": res})
        share = res["failed"] / res["attempted"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} ({share:.6f}) wall={wall:.1f}s "
              f"steal={'+'.join(f'{x:.1f}' for x in steal)}s "
              f"place_s={res['metrics']['place_s']['value']:.3f}", flush=True)

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in results}
    print(f"\n{args.workload}: {args.runs} runs, failed shares {sorted(shares)}, "
          f"all correct: {all(r['result']['correct'] for r in results)}")
    print(f"{'metric':30s} {'unit':>8s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    names = results[0]["result"]["metrics"].keys()
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in results]
        unit = results[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:30s} {unit:>8s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
