#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload (or all).

Run from the repository root:

    python3 perfbench/run.py --workload <offline-batch|fleet-online|day-disagg|all> \
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates through path dependencies. It is built in
release mode into $CARGO_TARGET_DIR, or .bench_build/ at the repository root
when that is unset; cargo's output goes to stderr. All other arguments are
passed to the benchmark binary, whose last stdout line is the result JSON.
With --workload all, the three workloads run one after another, each in its
own process, and the exit code is the first non-zero one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["offline-batch", "fleet-online", "day-disagg"]


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "moe-perfbench")


def main(argv):
    binary = build()
    if binary is None:
        return 1
    args = list(argv)
    workloads = [None]
    if "--workload" in args:
        at = args.index("--workload")
        if at + 1 < len(args) and args[at + 1] == "all":
            del args[at : at + 2]
            workloads = WORKLOADS
    for workload in workloads:
        extra = [] if workload is None else ["--workload", workload]
        code = subprocess.run([binary] + extra + args).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
