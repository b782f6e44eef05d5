#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and A/B comparison of two checkouts.

    python3 perfbench/spread.py [--runs N] [--seconds S] [--workloads a,b]
                                [--other CHECKOUT] [--trace 0|1]

Runs the benchmark command from BENCHMARK.json N times per workload, each
time with another seed, interleaving workloads (w1 s1, w2 s1, ..., w1 s2,
...) so slow drift of the host does not land on one workload. For every
metric it prints the median and the inter-quartile distance as a share of
the median (Python's statistics.quantiles, n=4). With --other, every run
is made on both checkouts, alternating which goes first, and both sides'
medians and quartiles are printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=checkout, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan"), q1, q3


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--other", help="a second checkout to compare against")
    parser.add_argument("--trace", type=int, default=0)
    opts = parser.parse_args()
    sides = [root] + ([os.path.abspath(opts.other)] if opts.other else [])
    workloads = opts.workloads.split(",")
    results = {(side, w): [] for side in sides for w in workloads}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for w in workloads:
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                metrics = run(side, bench["command"], w, seed, opts.seconds, opts.trace)
                results[(side, w)].append(metrics)
                print(f"{w} seed {seed} {os.path.basename(side)}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print()
    for w in workloads:
        for side in sides:
            runs = results[(side, w)]
            for name in runs[0]:
                med, rel, q1, q3 = spread([r[name] for r in runs])
                bound = bounds.get(name)
                note = f" (bound {bound}, a third {bound / 3:.3f})" if bound else ""
                print(f"{w:16} {os.path.basename(side):10} {name:24} median {med:<12.6g} "
                      f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {rel:.4f}{note}")


if __name__ == "__main__":
    main()
