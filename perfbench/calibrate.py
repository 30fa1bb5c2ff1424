#!/usr/bin/env python3
"""Measure the run-to-run spread of every end-to-end metric.

    python3 perfbench/calibrate.py [--runs 10] [--sets 2] [--seconds S]
                                   [--workloads a,b] [--first-seed 1]

Run it from the root of a source tree. Each set runs every workload
--runs times through perfbench/run.py, with seeds first-seed,
first-seed+1, ...; workloads are interleaved so drift on the machine hits
them alike. For each set and each (workload, metric) it prints the median
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. With two or
more sets it also prints how far each set's median lies from the first
set's, as a share of the first. A spread must stay under a third of the
metric's bound in BENCHMARK.json; rows that do not are marked.
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
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    # every printed "name workload value unit n=k" line, JSON metrics included
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 5 and parts[1] == workload and parts[4].startswith("n="):
            values[parts[0]] = float(parts[2])
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        samples = {}
        for i in range(args.runs):
            for w in workloads:
                for name, v in run_once(w, args.first_seed + i, args.seconds).items():
                    samples.setdefault((w, name), []).append(v)
        sets.append(samples)
    print(f"{'workload':14} {'metric':24} {'bound':>6} " +
          " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}" for s in range(args.sets)) +
          "  " + " ".join(f"{'shift' + str(s + 1):>7}" for s in range(1, args.sets)))
    for key in sorted(sets[0]):
        w, name = key
        bound = bounds.get(name)
        cells, flags = [], []
        for samples in sets:
            vals = samples[key]
            sp = spread(vals)
            cells.append(f"{statistics.median(vals):12.6g} {sp:8.2%}")
            if bound is not None and name != "setup_s" and sp >= bound / 3:
                flags.append("spread")
        base = statistics.median(sets[0][key])
        shifts = []
        for samples in sets[1:]:
            shift = statistics.median(samples[key]) / base - 1
            shifts.append(f"{shift:+7.2%}")
            if bound is not None and abs(shift) > bound:
                flags.append("shift")
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{w:14} {name:24} {b} " + " ".join(cells) + "  " + " ".join(shifts) +
              ("  <-- " + ",".join(sorted(set(flags))) if flags else ""))


if __name__ == "__main__":
    main()
