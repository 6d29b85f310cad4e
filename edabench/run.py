#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 edabench/run.py --workload characterize --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds edabench/ (which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
binary and passes its standard output through: the last line is the
result object. Build logs go to standard error. Exits non-zero, without a
result, when the sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("characterize", "plan", "fleet", "serve")
RUN_TIMEOUT_S = 170


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", build_dir, "--target", "edabench",
                "-j", jobs]
    for command in (configure, compile_):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("edabench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "edabench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-rev", git_rev()]
    if args.trace == "1":
        command += ["--out", os.path.join(build_dir, "traces")]
    # One malloc arena: with per-thread arenas, peak RSS depends on which
    # arena each thread happened to allocate from, not on the program.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("edabench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
