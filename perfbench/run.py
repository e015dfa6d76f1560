#!/usr/bin/env python3
"""The repository benchmark: one governed profiling epoch, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload {serve,wide,barnes_hut} --seed N \\
        --seconds S --trace {0,1}

It builds the simulator and the perfbench program from source into the build
directory ($CARGO_TARGET_DIR when set, else .bench_build), runs the untimed
full-sampling oracle pass for the seed in a process of its own (so it does not
count toward the measured peak memory), then the timed run.  The last line of
standard output is the result as JSON: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  The traced run also writes its spans to
<build dir>/perfbench-out/trace-<workload>-<seed>.json.  The exit code is
non-zero when a correctness check fails or the benchmark cannot run.

perfbench/metrics.json says which metrics are host-timed and which come from
the simulated model, and which end-to-end metric each layer should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "wide", "barnes_hut")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds perfbench; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "djvm.hpp")):
        log("perfbench: the simulator sources (src/) are not next to perfbench/")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2

    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    # The run must end within 180 s of here, whatever hangs.
    deadline = time.monotonic() + 170
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    oracle = os.path.join(out_dir, f"oracle-{args.workload}-{args.seed}-{os.getpid()}.txt")
    try:
        done = subprocess.run([binary, "oracle", *common, "--out", oracle],
                              stdout=sys.stderr, timeout=60)
        if done.returncode != 0:
            log("perfbench: oracle pass failed")
            return 2
        done = subprocess.run(
            [binary, "run", *common, "--seconds", str(args.seconds),
             "--trace", args.trace, "--oracle", oracle, "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        return 2
    finally:
        if os.path.exists(oracle):
            os.remove(oracle)

    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        log("perfbench: no result was printed")
        return done.returncode or 2
    expected = expected_metrics(args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        print(line)
    if expected is not None and got != expected:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(got.items()) ^ set(expected.items())))
        return 3
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
