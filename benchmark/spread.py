#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the contract judges it.

Runs each workload once per seed (untraced), then prints, per workload and
metric, the median and (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4), next to the metric's bound.  A benchmark is
steady when every spread except setup_s stays under a third of its bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run it from the repository root; it builds with the command of BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        runs = {}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit code {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} operations failed", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
        print(f"{workload}  ({args.runs} runs, {(time.time() - started) / args.runs:.1f} s each)")
        for name, values in runs.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "" if share <= 1 / 3 or name == "setup_s" else ("  > bound/3" if share <= 1 else "  > BOUND")
            print(f"  {name:<22} median {median:>14.4f}  spread {100 * spread:6.2f}%  bound {100 * bounds[name]:4.0f}%{flag}")
    print(f"worst spread / bound: {worst:.2f}")
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
