#!/usr/bin/env python3
"""Smoke test of the whole-check benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload at its smoke size, untraced and traced, for one
second each. Asserts that every metric BENCHMARK.json names is emitted
with its unit, that no operation failed (failed == 0 and failed_frac ==
0), that the outputs were judged correct, that the report line carries
the host stamp and the exact counts, and that the traced run wrote a
Chrome trace file.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return done.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            lines = run(workload, trace)
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            for spec in wanted[trace]:
                got = metrics.get(spec["name"])
                if got is None:
                    problems.append(f"{where}: {spec['name']} missing")
                elif got["unit"] != spec["unit"]:
                    problems.append(f"{where}: {spec['name']} unit {got['unit']}")
            extra = set(metrics) - {s["name"] for s in wanted[trace]}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: failed={result['failed']} "
                                f"correct={result['correct']}")
            if trace == 1 and metrics["failed_frac"]["value"] != 0:
                problems.append(f"{where}: failed_frac != 0")
            if not any(l.startswith("# stamp {") for l in lines):
                problems.append(f"{where}: no host stamp")
            reports = [l for l in lines if l.startswith("# report ")]
            if not reports or "exact" not in json.loads(reports[0][9:]):
                problems.append(f"{where}: no exact counts")
            traces = [l[len("# chrome trace: "):] for l in lines
                      if l.startswith("# chrome trace: ")]
            if trace == 1:
                if not traces or not os.path.isfile(traces[0]):
                    problems.append(f"{where}: no trace file")
                else:
                    with open(traces[0]) as f:
                        if not json.load(f)["traceEvents"]:
                            problems.append(f"{where}: empty trace")
            print(f"{where}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    for problem in problems:
        print("FAIL", problem)
    print("OK" if not problems else "FAILED")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
