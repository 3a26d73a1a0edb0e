#!/usr/bin/env python3
"""Build and run the df3sim benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload request_city --seed 2016 --seconds 10 --trace 0

Workloads: request_city, fleet_winter, churn_ladder (see BENCHMARK.json).
The first run configures and builds perfbench/ (which pulls in the df3sim
library from the parent directory) as a Release build under the directory
named by CARGO_TARGET_DIR, default .bench_build; later runs rebuild
incrementally. The workload then runs in a child process of its own, so its
peak RSS and set-up time are its own, with the thread and trace overrides
of the environment removed, so the platform's thread knobs stay at their
defaults. The last line of stdout is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("request_city", "fleet_winter", "churn_ladder")
# Environment overrides that would change what the platform runs or records.
STRIPPED_ENV = ("DF3_PHYSICS_THREADS", "DF3_CONTROL_THREADS", "DF3_TRACE_CAPACITY",
                "DF3_BENCH_JSON")


def build(build_dir):
    """Configure and build the benchmark binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "df3bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "df3bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
