#!/usr/bin/env python3
"""Compares two perfbench results, simulated metric by simulated metric.

    python3 tools/sim_diff.py BASE CHANGE

BASE and CHANGE each hold the standard output of one `perfbench/run.py` run
(same workload, seed and --trace mode); the last JSON line of each is the
result.  perfbench/metrics.json says which metrics are host-timed
(`end_to_end.<name>.kind == "host"` and `per_layer_kind.host`); every other
metric comes from the simulated model and is deterministic per seed.

Every simulated metric that differs, or is present on one side only, is
printed, and the exit code is 1 if any does.  Host metrics are printed side
by side for reading and never fail the comparison.  Exit code 2 means an
input could not be read.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "perfbench", "metrics.json")


def last_result(path):
    """The metrics of the last JSON line in `path`: name -> value."""
    with open(path) as f:
        lines = [line.strip() for line in f]
    for line in reversed(lines):
        if line.startswith("{"):
            return {name: m["value"] for name, m in json.loads(line)["metrics"].items()}
    raise ValueError(f"{path}: no JSON result line")


def host_metrics(spec):
    """Names of the host-timed metrics, end-to-end and per-layer."""
    host = {name for name, m in spec["end_to_end"].items() if m.get("kind") == "host"}
    host.update(spec["per_layer_kind"]["host"])
    return host


def fmt(value):
    return "-" if value is None else repr(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="perfbench output of the base commit")
    ap.add_argument("change", help="perfbench output of the change")
    args = ap.parse_args(argv)
    try:
        with open(SPEC) as f:
            host = host_metrics(json.load(f))
        base = last_result(args.base)
        change = last_result(args.change)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"sim_diff: {e}", file=sys.stderr)
        return 2

    names = sorted(set(base) | set(change))
    simulated = [n for n in names if n not in host]
    differ = [n for n in simulated if base.get(n) != change.get(n)]
    print(f"simulated: {len(simulated)} metrics, {len(differ)} differ")
    for n in differ:
        print(f"  DIFF {n}: {fmt(base.get(n))} -> {fmt(change.get(n))}")
    print("host (not compared):")
    for n in names:
        if n in host:
            print(f"  {n}: {fmt(base.get(n))} -> {fmt(change.get(n))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
