#!/usr/bin/env python3
"""Steadiness and exact-repeat self-check for the whole-check benchmark.

    python3 perfbench/check_repeat.py [--workloads a,b] [--seeds 1-10]
        [--sets 2] [--seconds S] [--trace 0|1] [--size full|smoke] [--verbose]

Runs perfbench/run.py once per (set, workload, seed). For every
workload and end-to-end metric it prints each set's median and its
spread (Q3 - Q1 of the per-seed values, as statistics.quantiles(n=4)
gives them, over the median) against the bound in BENCHMARK.json, and
how far the later sets' medians moved from the first; with --trace 1,
the tracing overhead and the share of each operation its top-level spans
leave uncovered. It then diffs the
exact-repeat counts (the "exact" object of each run's report line)
between sets, seed by seed: those must agree bit for bit. Exits 1 if a
count differs, a run fails, or a spread other than setup_s exceeds its
bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_FIGURES = ("trace.overhead_s", "trace.overhead_frac", "op.other_frac",
                 "failed_frac")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace, size):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--size", size]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        return None, None
    lines = done.stdout.strip().splitlines()
    report = None
    for line in lines:
        if line.startswith("# report "):
            report = json.loads(line[len("# report "):])
    return json.loads(lines[-1]), report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every per-seed value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = {}
            for seed in seeds:
                result, report = run_once(workload, seed, seconds, args.trace,
                                          args.size)
                if result is None or result["failed"] != 0 or not result["correct"]:
                    print(f"{workload} set {s} seed {seed}: run failed or "
                          f"incorrect: {result}")
                    ok = False
                    continue
                runs[seed] = (result, report)
            sets.append(runs)

        print(f"\n== {workload} ({len(seeds)} seeds x {args.sets} sets, "
              f"{seconds:g} s, trace {args.trace})")
        if args.trace == 0 and all(len(r) >= 2 for r in sets):
            for name, bound in bounds.items():
                cells = []
                first_median = None
                for runs in sets:
                    values = [r[0]["metrics"][name]["value"] for r in runs.values()]
                    med, rel = spread(values)
                    if first_median is None:
                        first_median = med
                    drift = (med - first_median) / first_median if first_median else 0
                    cells.append(f"median {med:.6g} spread {rel:.3f} "
                                 f"drift {drift:+.3f}")
                    if args.verbose:
                        cells[-1] += " [" + " ".join(f"{x:.4g}" for x in values) + "]"
                    if name != "setup_s" and rel > bound:
                        ok = False
                        cells[-1] += " SPREAD>BOUND"
                print(f"  {name:14s} bound {bound:.2f} | " + " | ".join(cells))

        if args.trace == 1:
            # What tracing costs, and how much of an operation its
            # top-level spans leave uncovered.
            for name in TRACE_FIGURES:
                cells = []
                for runs in sets:
                    values = [r[0]["metrics"][name]["value"] for r in runs.values()]
                    cells.append(f"median {statistics.median(values):.4g} "
                                 f"max {max(values):.4g}")
                print(f"  {name:20s} | " + " | ".join(cells))

        for seed in seeds:
            exacts = [runs[seed][1]["exact"] for runs in sets if seed in runs]
            if len(exacts) < 2:
                continue
            for other in exacts[1:]:
                if other != exacts[0]:
                    ok = False
                    diff = {k: (exacts[0].get(k), other.get(k))
                            for k in set(exacts[0]) | set(other)
                            if exacts[0].get(k) != other.get(k)}
                    print(f"  seed {seed}: exact counts differ: {diff}")
        if args.sets >= 2:
            print(f"  exact counts compared across sets for seeds {seeds}")
    print("\nOK" if ok else "\nFAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
