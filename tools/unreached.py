#!/usr/bin/env python3
"""Lists the src/ code a coverage run never executed.

Build with --coverage (CMAKE_CXX_FLAGS=--coverage), run whatever should
count as "reached" -- benches, tools, examples, the perfbench workloads --
then point this at the build trees:

    python3 tools/unreached.py build-cov .bench_build-cov > unreached.txt

For every .gcno under the given directories it runs
`gcov --json-format --stdout` and sums the counts of each src/ function over
every translation unit and tree that compiled it (a header function is
reached if any unit ran it).  It prints:

  * the .gcno files gcov could not read, with gcov's message; their units
    are left out of the lists below, and a header function only they
    counted may be listed as never executed;
  * the src/ .cpp files that were compiled but never executed: no run wrote
    their .gcda, or every counted line in them stayed at zero;
  * the src/ functions whose summed execution count is zero;

each with totals.  Only functions gcov instruments count: in an optimized
build, a function inlined into every caller has no count of its own.

It then compares the functions with unreached-expected.txt beside this
script, the reviewed list of functions nothing outside the unit tests is
meant to reach: it prints each function the listing reports that the list
does not name ("unexpected:") and each list entry the listing no longer
reports ("stale:").  The list holds one `<src/ path>  <demangled name>` per
line, matched by path and name, not by line number; a line starting with
`#` is a comment.
Exit status is 0 whenever the listing was produced; it gates nothing.
"""

import argparse
import json
import os
import subprocess
import sys

TOOLS = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src") + os.sep
EXPECTED = os.path.join(TOOLS, "unreached-expected.txt")


def gcov_json(gcno):
    """(gcov's JSON for one notes file, None) or (None, gcov's message)."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcno],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        message = "; ".join(proc.stderr.strip().splitlines())
        return None, message or f"exit {proc.returncode}"
    return json.loads(proc.stdout), None


def find_gcno(dirs):
    for d in dirs:
        for base, _, files in os.walk(d):
            for f in files:
                if f.endswith(".gcno"):
                    yield os.path.abspath(os.path.join(base, f))


def read_expected(lines):
    """The (path, name) entries of an expected-list file's lines."""
    entries = set()
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            path, name = line.split(None, 1)
            entries.add((path, name.strip()))
    return entries


def compare(cold, expected):
    """(unexpected, stale): the (path, name) pairs of the listing's
    (path, line, name) entries that `expected` lacks, and the `expected`
    entries the listing lacks; each sorted."""
    reported = {(path, name) for path, _, name in cold}
    return sorted(reported - expected), sorted(expected - reported)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dirs", nargs="+", help="coverage build trees")
    build_dirs = ap.parse_args().build_dirs

    units = set()   # src/ .cpp files some tree compiled and gcov read
    functions = {}  # (path, line, symbol) -> [demangled, summed count]
    reached = set() # src/ files with a line counted > 0
    unread = []     # (.gcno, gcov's message)

    for gcno in find_gcno(build_dirs):
        data, error = gcov_json(gcno)
        if data is None:
            unread.append((gcno, error))
            continue
        # CMake names objects <source>.o, so a unit built from a src/ .cpp
        # file has notes named .../src/<dir>/<file>.cpp.gcno.
        rel = gcno[: -len(".gcno")].split(os.sep + "src" + os.sep)[-1]
        if rel.endswith(".cpp") and os.path.isfile(SRC + rel):
            units.add(SRC + rel)
        cwd = data.get("current_working_directory", "")
        for entry in data.get("files", []):
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(SRC):
                continue
            if any(line["count"] > 0 for line in entry.get("lines", [])):
                reached.add(path)
            for fn in entry.get("functions", []):
                key = (path, fn["start_line"], fn["name"])
                slot = functions.setdefault(key, [fn["demangled_name"], 0])
                slot[1] += fn["execution_count"]

    def show(path):
        return os.path.relpath(path, os.path.dirname(SRC.rstrip(os.sep)))

    print(f".gcno files gcov could not read: {len(unread)}")
    for gcno, error in sorted(unread):
        print(f"  {gcno}: {error}")

    cold_units = sorted(units - reached)
    print(f"src/ files compiled but never executed: {len(cold_units)} of {len(units)}")
    for u in cold_units:
        print(f"  {show(u)}")

    cold = sorted((show(p), line, name) for (p, line, _), (name, count)
                  in functions.items() if count == 0)
    print(f"src/ functions never executed: {len(cold)} of {len(functions)}")
    for path, line, name in cold:
        print(f"  {path}:{line}  {name}")

    with open(EXPECTED) as f:
        unexpected, stale = compare(cold, read_expected(f))
    listed = show(EXPECTED)
    print(f"reported but not in {listed}: {len(unexpected)}")
    for path, name in unexpected:
        print(f"  unexpected: {path}  {name}")
    print(f"in {listed} but no longer reported: {len(stale)}")
    for path, name in stale:
        print(f"  stale: {path}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
