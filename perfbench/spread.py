#!/usr/bin/env python3
"""Runs one workload on several seeds and summarizes each metric: median,
first and third quartile (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median.

    python3 perfbench/spread.py --workload serve-open --seeds 1-10 [--trace 0]
                                [--seconds 20] [--out FILE]

Run it from the root of a checkout. --seconds defaults to BENCHMARK.json's
run_seconds; --out writes the runs and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if out.returncode != 0 or not result or not result["correct"]:
            print(out.stdout + out.stderr, file=sys.stderr)
            sys.exit(f"seed {seed}: run failed")
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarize(values)}
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    for name, s in summary.items():
        bound = bounds.get(name)
        mark = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] <= bound else 'OVER'}"
        print(f"  {name:<26} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
