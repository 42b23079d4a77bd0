#!/usr/bin/env python3
"""Builds and runs the acfc end-to-end pipeline benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own tests

Each call configures and builds perfbench/ (which compiles the library from
../src) into $CARGO_TARGET_DIR, default .bench_build; after the first call
only what changed is rebuilt. Build output goes to stderr, so the last line of
stdout is the benchmark's result JSON. Traced runs (--trace 1) also write
their spans to <build dir>/spans/<workload>-seed<seed>.jsonl.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("analyze", "ckpt-run", "fault-sweep", "explore")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configures and builds `target`; returns False on failure. Configuring
    every time costs little when nothing changed, and makes cmake refuse a
    build directory that was configured for another source tree instead of
    silently building that tree's sources."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j", jobs, "--target", target]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content):
    identifies the code measured when the checkout is not a git tree."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="fault-sweep pool threads (default min(nproc, 4))")
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "acfc", "acfc.h")):
        print("perfbench: no acfc sources under " + ROOT, file=sys.stderr)
        return 2
    if args.test:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(build_dir(), "perfbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1

    cmd = [os.path.join(build_dir(), "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads),
           "--commit", commit(), "--source-digest", source_digest()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
