#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report|serve|record \
        --seed N --seconds S --trace 0|1

Builds the libraries, the `ta` tool and the `perfbench` binary from source
(Release, into $CARGO_TARGET_DIR or .bench_build), then runs that binary.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["perfbench", "ta_cli"]


def build(build_dir):
    """Configure once, then build the targets; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["report", "serve", "record"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Relative paths keep the daemon's Unix socket path short.
    work = os.path.relpath(os.path.join(build_dir, "work"))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ta", os.path.join(build_dir, "tools", "ta"), "--work", work]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
