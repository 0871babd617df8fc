#!/usr/bin/env python3
"""Steadiness check for the benchmark: run sets of seeded runs and compare.

Runs the command of BENCHMARK.json with `--trace 0` once per seed, in one
or more sets of `--runs` runs each (every run its own seed), and prints for
each workload and end-to-end metric: each set's median and quartiles, the
spread (quartile distance as a share of the median), and the ratio of each
later set's median to the first set's. Every spread, `setup_s`'s included,
is checked against the metric's bound, as is the drift of each later set's
median in the metric's worse direction. `cpu_ms_per_call`, read from the
run's summary line, is printed the same way but has no bound. Any run that
fails, or reports `failed` > 0, fails the check.

Run from the repository root:

    python3 ascbench/steadiness.py --workloads collatz-inline --runs 5 --sets 1
    python3 ascbench/steadiness.py --runs 10 --sets 2          # the full check

Exit code 0 when every spread and drift is within bound, 1 otherwise.
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIRST_SEED = 1000
CPU = re.compile(r"cpu ([0-9.]+) ms/call")


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    cpu = CPU.search(proc.stdout)
    if cpu is None:
        raise RuntimeError(f"{workload} seed {seed}: no cpu figure on the summary line")
    return result, float(cpu.group(1)), elapsed


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    metrics = spec["end_to_end"] + [{"name": "cpu_ms_per_call", "better": "lower"}]
    ok = True
    seed = FIRST_SEED
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for _ in range(args.runs):
                result, cpu, elapsed = run_once(spec["command"], workload, seed,
                                                spec["run_seconds"])
                print(f"  {workload} set {set_index + 1} seed {seed}: {elapsed:.1f} s, "
                      f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
                if result["failed"] or not result["correct"]:
                    ok = False
                for m in spec["end_to_end"]:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                values["cpu_ms_per_call"].append(cpu)
                seed += 1
            sets.append(values)

        print(f"\n{workload}: {args.sets} set(s) x {args.runs} runs, "
              f"{spec['run_seconds']} s each")
        print(f"{'metric':<34} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'ratio':>7}  verdict")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            first_median = None
            for set_index, values in enumerate(sets):
                median, q1, q3, spread = summarize(values[name])
                ratio = median / first_median if first_median else 1.0
                if first_median is None:
                    first_median = median
                verdict = "no bound"
                if bound is not None:
                    spread_ok = spread <= bound
                    worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                    drift_ok = worse <= bound
                    ok = ok and spread_ok and drift_ok
                    steady = "steady" if spread < bound / 3 else "noisy"
                    verdict = (f"{steady} (bound {bound})" if spread_ok and drift_ok
                               else f"OUT OF BOUND {bound}")
                print(f"{name:<34} {set_index + 1:>3} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.4f} {ratio:>7.4f}  {verdict}")
        print(flush=True)
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
