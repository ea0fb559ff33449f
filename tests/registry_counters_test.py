#!/usr/bin/env python3
"""Pins the metrics registry's counter values for one driver run.

Runs objrep_driver with --metrics-json and requires the dump's "counters"
object (every key and value) to equal the golden file. The driver's run is
deterministic, so a counter that is dropped, doubled or renamed shows up as
a diff.

  python3 tests/registry_counters_test.py DRIVER GOLDEN OUT_JSON \\
      --wal=on --mvcc=on configs/full_matrix.cfg
"""
import json
import subprocess
import sys


def main():
    if len(sys.argv) < 5:
        sys.exit(__doc__)
    driver, golden, out = sys.argv[1:4]
    subprocess.run([driver, f"--metrics-json={out}", *sys.argv[4:]],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        actual = json.load(f)["counters"]
    with open(golden) as f:
        expected = json.load(f)
    if actual == expected:
        return
    for name in sorted(set(actual) | set(expected)):
        if actual.get(name) != expected.get(name):
            print(f"{name}: golden {expected.get(name)}, "
                  f"run {actual.get(name)}", file=sys.stderr)
    sys.exit(f"counters differ from {golden}; the run's dump is in {out}")


if __name__ == "__main__":
    main()
