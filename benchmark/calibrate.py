#!/usr/bin/env python3
"""Noise calibration: run BENCHMARK.json's command once per seed on each
workload and report, for every end-to-end metric, the median over the
runs and the spread between the first and third quartile as a share of
that median -- the figure each bound in BENCHMARK.json must exceed.
The same figures for the values as timed (before the machine-speed
scaling) come from each run's benchmark/results/<workload>-latest.json.

Run from the repository root:
    python3 benchmark/calibrate.py [--seeds 10] [--first-seed 1]
                                   [--workloads a,b] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]

    def summary(vs):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vs}

    report = {}
    for name in names:
        values = {m: [] for m in bounds}
        timed = {m: [] for m in bounds}
        slowdowns = []
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            result = json.loads(lines[-1])
            failed += result["failed"]
            with open(f"benchmark/results/{name}-latest.json") as f:
                record = json.load(f)
            slowdowns.append(record["machine_slowdown"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
                timed[m].append(statistics.median(record["metrics"][m]["raw_samples"]))
        rows = {}
        for m in bounds:
            rows[m] = summary(values[m]) | {"bound": bounds[m], "as_timed": summary(timed[m])}
            print(f"{name:15s} {m:14s} median {rows[m]['median']:12.6g}"
                  f"  spread {rows[m]['spread']:7.4f}  bound {bounds[m]:.2f}"
                  f"  (as timed: spread {rows[m]['as_timed']['spread']:7.4f})", flush=True)
        report[name] = {"failed": failed, "machine_slowdown": slowdowns, "metrics": rows}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
