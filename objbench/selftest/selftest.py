#!/usr/bin/env python3
"""Self-test of objbench: runs every workload (those in BENCHMARK.json and
hot_point) briefly at its smallest sizes and validates the output against
BENCHMARK.json.

    python3 objbench/selftest/selftest.py            # from the checkout root

For every workload, in both modes, it checks that the run exits 0 with
"correct": true and no failed operation, that the last stdout line is the
result object with exactly its four keys, and that every metric the mode
owes is present with its declared unit. A percentile missing from the JSON
must be reported as omitted, with its sample count, in the text report.
The traced mode must show the exact I/O sum (per-tag I/O equals the disk
reads + writes), the per-tag I/O must add up to storage.io_per_query, no
replay layer may have a clearly negative self time, the replay residual
(which closes the layer sum by definition) must stay within
RESIDUAL_BOUND of the client latency, and the latency percentiles left
out of its JSON must be in its text report with their sample counts.
Finally, a copy holding only BENCHMARK.json and objbench/ must fail
without printing a result. Exits non-zero on the first failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "objbench", "run.py")]
SECONDS = "2"
LAYERS = ("replay.net_self_us", "replay.queue_us", "replay.service_self_us",
          "replay.core_self_us", "replay.storage_us")
# Largest share of the replayed client latency the layers may leave
# unexplained; about 0.2 on the small update workloads.
RESIDUAL_BOUND = 0.5


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                 "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("%s trace=%d exited %d\n%s%s" % (workload, trace, out.returncode,
                                               out.stdout[-2000:], out.stderr[-2000:]))
    return lines, json.loads(lines[-1])


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)


def check_result(where, lines, result, declared):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (where, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (where, result["attempted"]))
    metrics = result["metrics"]
    for m in declared:
        name = m["name"]
        if name not in metrics:
            omitted = [l for l in lines if l.split()[:2] == [name, "omitted"]]
            if not (name.endswith(("_p50_us", "_p90_us", "_p99_us")) and omitted
                    and "n=" in omitted[0]):
                fail("%s: metric %s missing" % (where, name))
            continue
        if metrics[name]["unit"] != m["unit"]:
            fail("%s: %s unit %s, declared %s" % (where, name, metrics[name]["unit"], m["unit"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        fail("%s: undeclared metrics %s" % (where, sorted(extra)))
    for line in lines:
        words = line.split()
        if words and words[0].startswith(("retrieve_p", "update_p")) and "n=" not in line:
            fail("%s: percentile without a sample count: %s" % (where, line))
    return metrics


def check_traced(where, lines, m):
    if not any(l.startswith("exact sum:") and " == " in l for l in lines):
        fail("%s: exact I/O sum does not hold" % where)
    v = {k: x["value"] for k, x in m.items()}
    tags = sum(x for k, x in v.items() if k.startswith("storage.io_by_tag."))
    if not close(tags, v["storage.io_per_query"]):
        fail("%s: io_by_tag sums to %g, io_per_query %g" % (where, tags, v["storage.io_per_query"]))
    # The residual closes the replay sum by definition, so what can fail is
    # its size and the sign of each layer's self time.
    client = v["replay.client_us"]
    for layer in LAYERS:
        if v[layer] < -max(2.0, 0.05 * client):
            fail("%s: %s is %g us of a %g us client call" % (where, layer, v[layer], client))
    if abs(v["replay.residual_frac"]) > RESIDUAL_BOUND:
        fail("%s: replay residual is %g of the client latency" % (where, v["replay.residual_frac"]))
    for name in ("retrieve_p90_us", "retrieve_p99_us", "update_p50_us", "update_p99_us"):
        if not any(l.split()[:1] == [name] and "n=" in l for l in lines):
            fail("%s: %s not reported with its sample count" % (where, name))
    if v["error_rate"] != 0:
        fail("%s: error_rate %g" % (where, v["error_rate"]))


def check_without_sources():
    iso = os.path.join(ROOT, ".bench_build", "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(os.path.join(ROOT, "objbench"), os.path.join(iso, "objbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    out = subprocess.run([sys.executable, "objbench/run.py", "--workload", "hot_point",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=iso, env=env, timeout=180)
    shutil.rmtree(iso, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail("a copy without the library sources did not fail cleanly")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # hot_point is not in BENCHMARK.json (README.md says why) but still runs.
    for w in ["hot_point"] + [w["name"] for w in spec["workloads"]]:
        lines, result = run(w, 0)
        check_result(w + " trace=0", lines, result, spec["end_to_end"])
        lines, result = run(w, 1)
        m = check_result(w + " trace=1", lines, result, spec["per_layer"])
        check_traced(w + " trace=1", lines, m)
        print("selftest ok: %s" % w, flush=True)
    check_without_sources()
    print("selftest ok: fails cleanly without the library sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
