#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds see it.

    python3 perfbench/stability.py --workloads paper22,storm-blind --seeds 1-10

Runs perfbench/run.py once per (workload, seed), untraced, with the
run_seconds of BENCHMARK.json, and reports for every end-to-end metric its
median and quartile spread: (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread over a third of the metric's bound
is flagged. Progress goes to stderr; the summary is printed to stdout as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10", help="N or FIRST-LAST")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [workload["name"] for workload in spec["workloads"]])
    summary = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in summary["seeds"]:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {"median": median, "spread": round(spread, 4),
                             "steady": spread < bound / 3, "values": values}
            print(f"  {workload:14s} {name:16s} median {median:12.5f} spread {spread:7.4f}"
                  f" (bound {bound}){'' if spread < bound / 3 else '  <-- over bound/3'}",
                  file=sys.stderr, flush=True)
        summary["workloads"][workload] = metrics
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
