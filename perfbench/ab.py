#!/usr/bin/env python3
"""Same-host A/B of two source checkouts with interleaved benchmark runs.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR --workload ckpt-run \\
        --pairs 10 --seeds 11,12,13 --seconds 20

PARENT_DIR and CHANGE_DIR are two source trees (for example unpacked
with `git archive`), each with its own perfbench/ holding identical
benchmark code; each side builds into its own .bench_build. Pair i runs
seed seeds[i mod len(seeds)] on both sides, parent first on even pairs and
change first on odd ones. For every end-to-end metric it prints each
side's median and quartiles, how many pairs the change won, and whether
the change clears the claim rule: it wins at least nine tenths of the
pairs (ties count for neither side) and the medians differ by more than
the parent's own interquartile distance. Run once more on a seed held out
from development before stating a gain.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own .bench_build: a build directory
    # shared by both would compare one tree with itself.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.exit("run failed in %s:\n%s" % (checkout, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect outputs in %s (seed %d)" % (checkout, seed))
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="11,12,13,14,15")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    parent, change = [], []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = [(args.parent, parent), (args.change, change)]
        for checkout, sink in (order if i % 2 == 0 else order[::-1]):
            sink.append(run(checkout, args.workload, seed, args.seconds))

    for name, direction in better.items():
        a = [m[name]["value"] for m in parent]
        b = [m[name]["value"] for m in change]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        wins = sum((y < x) if direction == "lower" else (y > x)
                   for x, y in zip(a, b))
        gain = abs(statistics.median(b) - statistics.median(a)) > qa[2] - qa[0]
        claim = wins >= 0.9 * len(a) and gain
        print("%-14s parent %.5g [%.5g, %.5g]  change %.5g [%.5g, %.5g]  "
              "change wins %d/%d%s" % (name, statistics.median(a), qa[0], qa[2],
                                      statistics.median(b), qb[0], qb[2], wins,
                                      len(a), "  GAIN" if claim else ""))


if __name__ == "__main__":
    main()
