#!/usr/bin/env python3
"""Prints line coverage per src/ directory and every src/ function that ran
zero times, from the .gcda files of a --coverage build after its tests ran.

    cmake -B build-cov -S . -DCMAKE_CXX_FLAGS=--coverage \
          -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j && ctest --test-dir build-cov
    python3 tools/coverage_report.py build-cov

The report is information only: it always exits 0 once gcov has run. A
header compiled into several objects is merged line by line and function
by function, so a line or function counts as run if any object ran it.
"""
import collections
import json
import os
import subprocess
import sys


def gcov_json(gcda_paths, cwd):
    """Yields gcov's JSON document for each .gcda file."""
    for path in gcda_paths:
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", path],
            cwd=cwd, capture_output=True, check=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    build = os.path.abspath(argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src") + os.sep
    gcdas = [os.path.join(d, f) for d, _, files in os.walk(build)
             for f in files if f.endswith(".gcda")]
    if not gcdas:
        sys.stderr.write("no .gcda files under %s: run the tests first\n"
                         % build)
        return 1

    lines = collections.defaultdict(dict)   # file -> line -> count
    funcs = collections.defaultdict(int)    # (file, line, name) -> count
    for doc in gcov_json(gcdas, build):
        cwd = doc.get("current_working_directory", build)
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = path[len(src):]
            # Optimized builds inline small functions, and gcov then
            # reports a zero execution count for a function whose lines
            # ran, so a function also counts as run if any of its lines did.
            line_runs = collections.defaultdict(int)  # mangled name -> sum
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[rel][n] = lines[rel].get(n, 0) + ln["count"]
                line_runs[ln.get("function_name")] += ln["count"]
            for fn in f["functions"]:
                key = (rel, fn["start_line"],
                       fn.get("demangled_name", fn["name"]))
                funcs[key] += fn["execution_count"] + line_runs[fn["name"]]

    per_dir = collections.defaultdict(lambda: [0, 0])  # dir -> [hit, total]
    for rel, counts in lines.items():
        d = rel.split(os.sep)[0]
        per_dir[d][0] += sum(1 for c in counts.values() if c > 0)
        per_dir[d][1] += len(counts)
    print("line coverage by src/ directory")
    hit_all = total_all = 0
    for d in sorted(per_dir):
        hit, total = per_dir[d]
        hit_all += hit
        total_all += total
        print("  src/%-12s %6d / %6d lines  %5.1f%%"
              % (d + "/", hit, total, 100.0 * hit / total if total else 0))
    print("  %-16s %6d / %6d lines  %5.1f%%"
          % ("total", hit_all, total_all,
             100.0 * hit_all / total_all if total_all else 0))

    unrun = sorted(k for k, n in funcs.items() if n == 0)
    print("\n%d src/ functions ran zero times" % len(unrun))
    for rel, line, name in unrun:
        print("  src/%s:%d  %s" % (rel, line, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
