#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload wire_fast --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Raw result lines are appended to --out (default
.bench_build/perfbench/spread.jsonl) so a later call with --summarize can
recompute the table without rerunning.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = sorted({k for r in results for k in r["metrics"]})
    print(f"{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}  runs")
    worst = 0.0
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        vals = [v for v in vals if v is not None]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
        print(f"{name:<28} {med:>14.6g} {spread:>11.4f} {str(bound):>6}  {len(vals)}{flag}")
    print(f"correct in {sum(r['correct'] for r in results)}/{len(results)} runs; "
          f"worst spread/bound {worst:.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    ap.add_argument("--out", default=".bench_build/perfbench/spread.jsonl")
    ap.add_argument("--summarize", action="store_true", help="only summarize --out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    if not args.summarize:
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", args.trace]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            result.update(workload=args.workload, seed=seed, trace=args.trace)
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
            print(f"seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if v["value"] is not None),
                flush=True)
    with open(args.out) as f:
        results = [json.loads(l) for l in f]
    results = [r for r in results if r["workload"] == args.workload and r["trace"] == args.trace]
    summarize(results, bench)


if __name__ == "__main__":
    main()
