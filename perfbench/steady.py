#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and print, per metric,
the median, quartiles, range and spread against the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds N]
                                [--trace 0|1] [--workloads a,b] [--first-seed 1]

Run from the repository root. Each run uses another seed (first-seed,
first-seed + 1, ... across all sets). The spread of a metric is the
distance between its first and third quartile as a share of its median,
with the quartiles of `statistics.quantiles(values, n=4)`. A metric is
steady when its spread stays below a third of its bound; `setup_s` is
judged only by the comparison of medians. With `--sets 2` a second set
of runs on the next seeds follows, and its medians are compared with the
first set's against the bound. Every run must pass its checks with no
failed operation.
"""

import argparse
from fractions import Fraction
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        # A run whose checks fail exits non-zero; print what it found.
        print(out.stdout[-3000:])
        sys.exit(f"run failed ({workload} seed {seed}): exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, min(values), max(values), spread


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    metrics = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    all_steady = True
    for workload in a.workloads.split(","):
        medians = []
        for s in range(a.sets):
            values = {m["name"]: [] for m in metrics}
            shares, walls, correct = set(), [], True
            for k in range(a.runs):
                seed = a.first_seed + s * a.runs + k
                result, wall = run_once(bench["command"], workload, seed, a.seconds, a.trace)
                walls.append(wall)
                correct &= result["correct"]
                shares.add(Fraction(result["failed"], result["attempted"]))
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"   {workload} seed {seed}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics[:6]),
                    flush=True)
            print(f"\n== {workload}, set {s + 1}: {a.runs} runs, seeds {seed - a.runs + 1}.."
                  f"{seed}, correct {correct}, failed shares {sorted(str(x) for x in shares)}, "
                  f"wall per run {statistics.median(walls):.1f} s (max {max(walls):.1f})")
            print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
                  f"{'spread':>8} {'bound':>6}  steady")
            set_medians = {}
            for m in metrics:
                v = values[m["name"]]
                med, q1, q3, lo, hi, spread = summarize(v)
                set_medians[m["name"]] = med
                bound = m.get("bound")
                if bound is None:
                    verdict = ""
                elif m["name"] == "setup_s":
                    # Set-up time is gated by its median from set to set
                    # (below), not by its spread within a set.
                    verdict = "(median only)"
                else:
                    ok = spread < bound / 3
                    all_steady &= ok
                    verdict = "yes" if ok else "NO"
                print(f"{m['name']:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {lo:>12.4f} {hi:>12.4f} "
                      f"{spread:>8.4f} {bound if bound is not None else '':>6}  {verdict}")
            clean = correct and shares == {Fraction(0)}
            all_steady &= clean
            if not clean:
                print("   NO: a check failed or operations failed")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print(f"-- {workload}: set {s + 1} against set 1")
            for m in metrics:
                if "bound" not in m:
                    continue
                w = worse(medians[0][m["name"]], medians[s][m["name"]], m["better"])
                ok = w <= m["bound"]
                all_steady &= ok
                print(f"   {m['name']:<34} worse by {w:+.4f} (bound {m['bound']})  {'ok' if ok else 'NO'}")
    print("\nall steady" if all_steady else "\nNOT steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
