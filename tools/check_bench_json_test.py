#!/usr/bin/env python3
"""Self-test for tools/check_bench_json.py (ctest label `bench`).

Shows that every gate is enforced at its FLOORS value: each committed
BENCH_*.json passes; for every FLOORS row a copy of its baseline moved
just past the bound fails naming that row, and the same copy moved just
inside the bound passes; breaking an exact-sum invariant (io_by_tag,
profile, per-shard profile) fails; and a --quick document is refused as
a committed baseline.

Usage: check_bench_json_test.py [REPO_ROOT]
"""

import collections
import copy
import glob
import json
import os
import sys
import tempfile

ROOT = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                       os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import check_bench_json as cbj  # noqa: E402

EPS = 1e-3  # relative step past / inside a bound


def load(bench):
    with open(os.path.join(ROOT, f"BENCH_{bench}.json")) as f:
        return json.load(f)


def point(doc, **coords):
    (p,) = [p for p in doc["points"]
            if all(p.get(k) == v for k, v in coords.items())]
    return p


def step(bound, past, op):
    """A value just past (violating) or just inside `bound` under `op`."""
    up = (op == "<=") == past
    delta = max(abs(bound) * EPS, EPS)
    return bound + delta if up else bound - delta


def set_ratio(num, den, field, ratio):
    num[field] = den[field] * ratio
    if "queries_per_sec" in num:
        num["queries_per_sec"] = max(num["queries_per_sec"], num[field])


def mut_adaptive(doc, v):
    p = doc["points"][0]
    p["adaptive_io"] = p["oracle_io"] + v * max(p["oracle_io"], 1.0)


def mut_shard(n):
    def m(doc, v):
        set_ratio(point(doc, shards=n), point(doc, shards=1),
                  "retrieves_per_sec", v)
    return m


def mut_mvcc(doc, v):
    set_ratio(point(doc, threads=8, pr_update=0.3, arm="mvcc"),
              point(doc, threads=8, pr_update=0.3, arm="2pl"),
              "retrieves_per_sec", v)


def mut_readconc(doc, v):
    set_ratio(point(doc, threads=8, arm="overlapped"),
              point(doc, threads=8, arm="serialized"),
              "retrieves_per_sec", v)


def mut_obs(doc, v):
    set_ratio(point(doc, arm="on"), point(doc, arm="off"),
              "retrieves_per_sec", 1 - v / 100)


def mut_net_connections(quick):
    def m(doc, v):
        doc["quick"] = quick
        doc["config"]["connections"] = int(round(v))
    return m


def mut_net_extra(block, field):
    def m(doc, v):
        target = doc["extra"][block]
        if field == "samples":
            target = target["admitted"]
            if v < 1:  # an empty summary carries no percentiles
                target.update(p50_us=0, p99_us=0, p999_us=0, max_us=0)
        target[field] = max(0, int(round(v)))
    return m


def mut_net_admitted(doc, v):
    adm = doc["extra"]["overload"]["admitted"]
    adm["p99_us"] = v * max(point(doc, verb="RETRIEVE")["p99_us"], 10000)
    adm["p999_us"] = adm["max_us"] = max(adm["max_us"], adm["p99_us"])


def mut_io_drift(doc, v):
    doc["points"][0]["avg_io_per_query"] *= 1 + v / 100


def mut_rate_drop(doc, v):
    doc["points"][0]["queries_per_sec"] *= 1 - v / 100


def mut_net_drift(doc, v):
    doc["extra"]["steady"]["throughput_rps"] *= 1 - v / 100


Row = collections.namedtuple(
    "Row", "op bound bench mutate integer vs_baseline",
    defaults=(False, False))

# FLOORS row -> its gate value, written out again here so that a change to
# FLOORS fails this test, and the baseline it is exercised on.
ROWS = {
    "adaptive_regret: worst regret":
        Row("<=", 0.10, "adaptive_regret", mut_adaptive),
    "shard_scaling: scaleout at 2 shards":
        Row(">=", 1.6, "shard_scaling", mut_shard(2)),
    "shard_scaling: scaleout at 4 shards":
        Row(">=", 2.5, "shard_scaling", mut_shard(4)),
    "mvcc_contention: mvcc/2pl at >=8 threads, pr_update 0.3":
        Row(">=", 2.0, "mvcc_contention", mut_mvcc),
    "read_concurrency: overlapped/serialized at >=8 threads":
        Row(">=", 3.0, "read_concurrency", mut_readconc),
    "obs_overhead: overhead %": Row("<=", 5.0, "obs_overhead", mut_obs),
    "net_loopback: connections":
        Row(">=", 10000, "net_loopback", mut_net_connections(False), True),
    "net_loopback: connections (quick)":
        Row(">=", 512, "net_loopback", mut_net_connections(True), True),
    "net_loopback: steady busy":
        Row("<=", 0, "net_loopback", mut_net_extra("steady", "busy"), True),
    "net_loopback: overload busy_rejections":
        Row(">=", 1, "net_loopback",
            mut_net_extra("overload", "busy_rejections"), True),
    "net_loopback: overload admitted":
        Row(">=", 1, "net_loopback", mut_net_extra("overload", "samples"),
            True),
    "net_loopback: admitted p99 / max(steady p99, 10 ms)":
        Row("<=", 2.0, "net_loopback", mut_net_admitted),
    "net_loopback: bad frames":
        Row("<=", 0, "net_loopback", mut_net_extra("server", "bad_frames"),
            True),
    "baseline: avg_io_per_query drift %":
        Row("<=", 1.0, "io_pipeline", mut_io_drift, vs_baseline=True),
    "baseline: rate drop / p99 growth %":
        Row("<=", 3.0, "io_pipeline", mut_rate_drop, vs_baseline=True),
    "net_loopback baseline: rate drop / p99 growth %":
        Row("<=", 25.0, "net_loopback", mut_net_drift, vs_baseline=True),
}


def check(doc, tmp, name=None, baseline=None):
    """Runs the checker on `doc`; returns None on pass, else the error."""
    path = os.path.join(tmp, name or f"BENCH_{doc['bench']}.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    try:
        cbj.check_file(path, baseline)
        return None
    except cbj.CheckError as e:
        return str(e)


def main():
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    baselines = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    expect(len(baselines) >= 7, f"{len(baselines)} committed baselines")
    for path in baselines:
        try:
            cbj.check_file(path)
            expect(True, f"{os.path.basename(path)} passes")
        except cbj.CheckError as e:
            expect(False, f"{os.path.basename(path)} passes ({e})")

    expect(set(ROWS) == set(cbj.FLOORS), "every FLOORS row has a mutation")
    for row, r in ROWS.items():
        expect(cbj.FLOORS.get(row) == (r.op, r.bound),
               f"FLOORS[{row!r}] is {r.op} {r.bound}")
    with tempfile.TemporaryDirectory() as tmp:
        for row, r in ROWS.items():
            base = os.path.join(ROOT, f"BENCH_{r.bench}.json") \
                if r.vs_baseline else None
            for past in (True, False):
                doc = copy.deepcopy(load(r.bench))
                if r.integer:
                    value = r.bound + (1 if r.op == "<=" else -1) if past \
                        else r.bound
                else:
                    value = step(r.bound, past, r.op)
                r.mutate(doc, value)
                # Quick documents are not committed baselines: name them
                # like a smoke output.
                err = check(doc, tmp, None if not doc["quick"] else
                            "smoke.json", base)
                if past:
                    expect(err is not None and row in err,
                           f"{row}: {value:g} fails naming the row ({err})")
                else:
                    expect(err is None, f"{row}: {value:g} passes ({err})")

        invariants = [
            ("io_by_tag", "io_pipeline",
             lambda d: d["points"][0]["io_by_tag"].update(
                 parent_scan=d["points"][0]["io_by_tag"]["parent_scan"] + 1)),
            ("profile tags sum", "obs_overhead",
             lambda d: d["extra"]["profile"]["io"]["tags"]["parent_scan"]
             .update(reads=4)),
            ("per-shard", "obs_overhead",
             lambda d: d["extra"]["profile"]["shards"].append(
                 {"shard": 0, "us": 1, "io": {
                     "total_reads": 2, "total_writes": 0,
                     "tags": {"parent_scan": {"reads": 1, "writes": 0}}}})),
        ]
        for name, bench, mutate in invariants:
            doc = copy.deepcopy(load(bench))
            mutate(doc)
            err = check(doc, tmp)
            expect(err is not None and name in err and "lost pages" in err,
                   f"invariant {name}: broken copy fails ({err})")

        for path in baselines:
            doc = json.load(open(path))
            doc["quick"] = True
            err = check(doc, tmp)
            expect(err is not None and "--quick" in err,
                   f"quick {os.path.basename(path)} refused as a baseline")
        # io_pipeline has one point per (strategy, prefetch): a second
        # prefetch-on row, as the removed worker sweep wrote, is refused.
        doc = load("io_pipeline")
        doc["points"].append(
            dict(point(doc, strategy="BFS", prefetch=True), workers=8))
        err = check(doc, tmp)
        expect(err is not None and "duplicate sweep point" in err,
               "a repeated io_pipeline (strategy, prefetch) point is refused")
        doc = load("shard_scaling")
        err = check(doc, tmp, "BENCH_mvcc_contention.json")
        expect(err is not None and "must be BENCH_shard_scaling.json" in err,
               "a misnamed baseline is refused")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
