#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, and
prints for every metric the ten-value statistics the bounds are judged by:
the median, and the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. With
`--trace 0` it compares that spread with each metric's bound in
BENCHMARK.json and with a third of it. All results are also written to
`.bench_out/spread.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]} if args.trace == 0 else {}

    report = {}
    ok = True
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"{w} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: not correct", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[w] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            report[w][name] = {"values": vals, "median": med, "spread": spread, "bound": bound}
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{w:18} {name:28} median {med:12.6g}  spread {spread:7.4f}  {verdict}")
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "spread.json"), "w") as f:
        json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
