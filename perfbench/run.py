#!/usr/bin/env python3
"""Builds the benchmark and the lt-serve daemon from source, then runs one
workload and passes its output through.

    python3 perfbench/run.py --workload tune-cold --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
.bench_build); run files (write-ahead logs, daemon logs, traced runs' span
files) go to .perfbench/. The last line of stdout is the JSON result. If the
build fails, nothing is printed on stdout and the exit code is 1.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest)] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tune-cold", "serve-open", "feed-drift"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not (build(target, "perfbench/Cargo.toml", [])
            and build(target, "Cargo.toml", ["-p", "lt-serve", "--bin", "lt-serve"])):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    # The program reads LT_* knobs from the environment; the benchmark runs it
    # with its defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LT_")}
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--daemon", os.path.join(release, "lt-serve"),
           "--work-dir", os.path.join(ROOT, ".perfbench")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
