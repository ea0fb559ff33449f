#!/usr/bin/env python3
"""Validates a bench result document and enforces its gates. Stdlib only.

Usage: check_bench_json.py FILE [--baseline FILE] [--tolerance PCT]

FILE is dispatched on its content: a bench envelope (the one document every
gated bench writes, bench/bench_util.h WriteEnvelope; DESIGN.md §18), a
metrics-registry dump (objrep_driver --metrics-json) or a tools/net_load
--json dump. Every gate value lives in FLOORS; a failing gate names its
row. Ratios (speedup, scaleout, overhead, regret) are computed from the
raw points. A file named BENCH_*.json is a committed baseline: it must be
BENCH_<bench>.json and must not come from a --quick run.

With --baseline, points matched on their sweep coordinates must keep
avg_io_per_query within 1% (I/O counts are deterministic); rates may drop,
or p99 grow, by at most --tolerance percent (default: the bench's FLOORS
row) -- compare timings only with a baseline from the same machine.
"""

import argparse
import json
import math
import os
import sys

# Every gate value, in one table. Row -> (comparison, bound).
FLOORS = {
    "adaptive_regret: worst regret": ("<=", 0.10),
    "shard_scaling: scaleout at 2 shards": (">=", 1.6),
    "shard_scaling: scaleout at 4 shards": (">=", 2.5),
    "mvcc_contention: mvcc/2pl at >=8 threads, pr_update 0.3": (">=", 2.0),
    "read_concurrency: overlapped/serialized at >=8 threads": (">=", 3.0),
    "obs_overhead: overhead %": ("<=", 5.0),
    "net_loopback: connections": (">=", 10000),
    "net_loopback: connections (quick)": (">=", 512),
    "net_loopback: steady busy": ("<=", 0),
    "net_loopback: overload busy_rejections": (">=", 1),
    "net_loopback: overload admitted": (">=", 1),
    # admitted RETRIEVE p99 <= max(2 x steady RETRIEVE p99, 20 ms)
    "net_loopback: admitted p99 / max(steady p99, 10 ms)": ("<=", 2.0),
    "net_loopback: bad frames": ("<=", 0),
    "baseline: avg_io_per_query drift %": ("<=", 1.0),
    "baseline: rate drop / p99 growth %": ("<=", 3.0),
    "net_loopback baseline: rate drop / p99 growth %": ("<=", 25.0),
}

# Tag names bench emitters may use (src/obs/io_context.h). "none" is
# legitimate: setup I/O inside the measured window is untagged.
IO_TAGS = {
    "none", "parent_scan", "index_probe", "heap_fetch", "cluster_scan",
    "temp_sort", "cache_fetch", "cache_maint", "update", "prefetch", "wal",
    "mvcc_commit", "mvcc_fold",
}

NUM = (int, float)
RATES = ("retrieves_per_sec", "queries_per_sec")
LATENCY = ("p50_us", "p99_us", "p999_us", "max_us")


class CheckError(Exception):
    """A document that fails its schema or a gate."""


def fail(msg):
    raise CheckError(msg)


def need(obj, field, types, ctx):
    if not isinstance(obj, dict) or field not in obj:
        fail(f"{ctx}: missing field '{field}'")
    v = obj[field]
    # bool is an int subclass: accept it only where a bool is asked for.
    if not isinstance(v, types) or isinstance(v, bool) != (types is bool):
        fail(f"{ctx}: field '{field}' has type {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        fail(f"{ctx}: field '{field}' is not finite")
    return v


def nonneg(obj, fields, types, ctx):
    for f in fields:
        if need(obj, f, types, ctx) < 0:
            fail(f"{ctx}: negative {f}")


def gate(row, value, ctx, bound=None):
    op, bound = FLOORS[row][0], FLOORS[row][1] if bound is None else bound
    if not (value >= bound if op == ">=" else value <= bound):
        fail(f"{ctx}: {value:.6g} violates FLOORS[{row!r}] ({op} {bound})")


def check_latency(obj, ctx):
    """An ordered samples/p50/p99/p999/max block, microseconds."""
    nonneg(obj, ("samples",), int, ctx)
    vals = [need(obj, f, NUM, ctx) for f in LATENCY]
    if vals[0] < 0 or vals != sorted(vals):
        fail(f"{ctx}: percentiles not ordered")
    if obj["samples"] == 0 and vals[-1]:
        fail(f"{ctx}: empty summary with nonzero max")


def check_io_by_tag(p, ctx):
    """The exact-sum invariant: per-tag pages sum to io_total."""
    total = need(p, "io_total", int, ctx)
    for tag, n in need(p, "io_by_tag", dict, ctx).items():
        if tag not in IO_TAGS or type(n) is not int or n <= 0:
            fail(f"{ctx}: io_by_tag['{tag}'] must be a known tag with a "
                 "positive int")
    if sum(p["io_by_tag"].values()) != total:
        fail(f"{ctx}: io_by_tag does not sum to io_total — attribution "
             "lost pages")


def check_point(p, ctx):
    """The measured fields any point may carry, each where present."""
    for f in RATES:
        if f in p and need(p, f, NUM, ctx) <= 0:
            fail(f"{ctx}: non-positive {f}")
    if all(f in p for f in RATES) and p["queries_per_sec"] < \
            p["retrieves_per_sec"]:
        fail(f"{ctx}: retrieves exceed total queries")
    if "p50_us" in p:
        check_latency(p, ctx)
    if "avg_io_per_query" in p:
        nonneg(p, ("avg_io_per_query",), NUM, ctx)
    if p.get("threads", 1) <= 0 or p.get("seconds", 1) <= 0 or \
            not 0 <= p.get("pr_update", 0) <= 1 or \
            not 0 <= p.get("seq_read_pct", 0) <= 100:
        fail(f"{ctx}: threads, seconds, pr_update or seq_read_pct out of "
             "range")
    if "io_by_tag" in p:
        check_io_by_tag(p, ctx)


def arm_ratios(points, num, den, bench):
    """Pairs each `num` arm point with its `den` arm at the same other
    coordinates; yields (point, num/den retrieve rate)."""
    by_key = {}
    for p in points:
        if p["arm"] not in (num, den):
            fail(f"{bench}: unknown arm '{p['arm']}'")
        key = tuple(sorted((k, v) for k, v in p.items()
                           if k in BENCHES[bench][0] and k != "arm"))
        by_key.setdefault(key, {})[p["arm"]] = p
    for key, arms in by_key.items():
        if set(arms) != {num, den}:
            fail(f"{bench} point {dict(key)}: needs both arms {num}/{den}")
        yield arms[num], (arms[num]["retrieves_per_sec"] /
                          arms[den]["retrieves_per_sec"])


def gates_adaptive(doc):
    candidates = need(doc["config"], "candidates", list, "config")
    for p in doc["points"]:
        ctx = (f"point ({p['figure']}, sf={p['share_factor']}, "
               f"top={p['num_top']}, pr={p['pr_update']})")
        if p["figure"] not in ("fig3", "fig4", "fig5"):
            fail(f"{ctx}: unknown figure '{p['figure']}'")
        if p["oracle"] not in candidates:
            fail(f"{ctx}: oracle '{p['oracle']}' not in candidates")
        if p["num_queries"] <= 0 or p["oracle_io"] <= 0 or \
                p["adaptive_io"] < 0:
            fail(f"{ctx}: nonsensical query count or I/O figures")
        regret = max(0.0, p["adaptive_io"] - p["oracle_io"]) / \
            max(p["oracle_io"], 1.0)
        gate("adaptive_regret: worst regret", regret, ctx)


def gates_shard(doc):
    points = doc["points"]
    if [p["shards"] for p in points] != sorted(p["shards"] for p in points) \
            or points[0]["shards"] != 1:
        fail("shard_scaling: shard counts must increase from the 1-shard "
             "baseline")
    base = points[0]["retrieves_per_sec"]
    for p in points:
        row = f"shard_scaling: scaleout at {p['shards']} shards"
        if row in FLOORS:
            gate(row, p["retrieves_per_sec"] / base,
                 f"shard point {p['shards']}")


def gates_mvcc(doc):
    for p, ratio in arm_ratios(doc["points"], "mvcc", "2pl",
                               "mvcc_contention"):
        if p["threads"] >= 8 and abs(p["pr_update"] - 0.3) < 1e-6:
            gate("mvcc_contention: mvcc/2pl at >=8 threads, pr_update 0.3",
                 ratio, f"mvcc point {p['threads']} threads")


def gates_readconc(doc):
    for p, ratio in arm_ratios(doc["points"], "overlapped", "serialized",
                               "read_concurrency"):
        if p["threads"] >= 8:
            gate("read_concurrency: overlapped/serialized at >=8 threads",
                 ratio, f"readconc point {p['threads']} threads")


def check_profile_io(io, ctx):
    """The exact-sum invariant of one RetrieveProfile I/O block: per-tag
    reads/writes sum to the block's totals."""
    totals = [need(io, f, int, ctx) for f in ("total_reads", "total_writes")]
    sums = [0, 0]
    for tag, entry in need(io, "tags", dict, ctx).items():
        rw = [need(entry, f, int, f"{ctx} tag {tag}")
              for f in ("reads", "writes")]
        if tag not in IO_TAGS or min(rw) < 0 or max(rw) == 0:
            fail(f"{ctx}: tag '{tag}' must be known, non-negative, nonzero")
        sums = [a + b for a, b in zip(sums, rw)]
    if sums != totals:
        fail(f"{ctx}: profile tags sum to {sums[0]}r/{sums[1]}w but totals "
             f"claim {totals[0]}r/{totals[1]}w — attribution lost pages")


def gates_obs(doc):
    rates = {p["arm"]: p["retrieves_per_sec"] for p in doc["points"]}
    if sorted(rates) != ["off", "on"] or len(doc["points"]) != 2:
        fail("obs_overhead: needs exactly one 'off' and one 'on' point")
    gate("obs_overhead: overhead %",
         100.0 * (rates["off"] - rates["on"]) / rates["off"], "obs")
    extra = need(doc, "extra", dict, "obs")
    prof = need(extra, "profile", dict, "obs extra")
    nonneg(prof, ("trace_id", "total_us", "lock_wait_us", "commit_wait_us",
                  "cache_hits", "cache_misses", "rows"), int, "obs profile")
    need(prof, "verb", str, "obs profile")
    check_profile_io(need(prof, "io", dict, "obs profile"), "obs profile io")
    shards = need(prof, "shards", list, "obs profile")
    for s in shards:
        sctx = f"obs profile shard {s.get('shard', '?')} (per-shard)"
        nonneg(s, ("shard", "us"), int, sctx)
        check_profile_io(need(s, "io", dict, sctx), sctx)
    if len({s["shard"] for s in shards}) != len(shards):
        fail("obs profile: duplicate shard slice")
    heat = need(extra, "heat", dict, "obs extra")
    if need(heat, "touches", int, "obs heat") <= 0:
        fail("obs heat: the tracked run recorded no touches")
    heats = [need(t, "heat", NUM, "obs heat parent")
             for t in need(heat, "top_parents", list, "obs heat")]
    if not heats or min(heats) < 0 or heats != sorted(heats, reverse=True):
        fail("obs heat: top_parents must be non-empty, non-negative and "
             "sorted by heat")


def gates_net(doc):
    conns = need(doc["config"], "connections", int, "net config")
    gate("net_loopback: connections (quick)" if doc["quick"]
         else "net_loopback: connections", conns, "net")
    verbs = {p["verb"]: p for p in doc["points"]}
    if sorted(verbs) != ["PING", "RETRIEVE", "UPDATE"] or \
            len(doc["points"]) != 3 or min(p["samples"] for p in
                                           doc["points"]) == 0:
        fail("net: needs one point with samples per RETRIEVE/UPDATE/PING")
    steady, overload, server = (need(need(doc, "extra", dict, "net"), k,
                                     dict, "net extra")
                                for k in ("steady", "overload", "server"))
    if min(need(steady, f, NUM, "net steady") for f in
           ("seconds", "throughput_rps", "requests_ok")) <= 0:
        fail("net steady: non-positive seconds, throughput or requests_ok")
    if need(steady, "max_inflight", int, "net steady") < conns:
        fail("net steady: budget below the connection count — the phase "
             "was not actually unshedded")
    gate("net_loopback: steady busy", need(steady, "busy", int, "net steady"),
         "net steady")
    if need(overload, "seconds", NUM, "net overload") <= 0 or \
            not 0 < need(overload, "max_inflight", int, "net overload") < conns:
        fail("net overload: non-positive seconds or not an overload budget")
    gate("net_loopback: overload busy_rejections",
         need(overload, "busy_rejections", int, "net overload"),
         "net overload")
    admitted = need(overload, "admitted", dict, "net overload")
    check_latency(admitted, "net overload admitted")
    gate("net_loopback: overload admitted", admitted["samples"],
         "net overload")
    gate("net_loopback: admitted p99 / max(steady p99, 10 ms)",
         admitted["p99_us"] / max(verbs["RETRIEVE"]["p99_us"], 10000),
         "net overload")
    nonneg(server, ("accepted", "requests_admitted", "responses",
                    "busy_rejected", "bad_frames"), int, "net server")
    if server["accepted"] < conns:
        fail("net server: accepted fewer connections than the bench claims")
    gate("net_loopback: bad frames", server["bad_frames"], "net server")


# bench -> (sweep coordinates, required measured fields, gates)
BENCHES = {
    "io_pipeline": (
        {"strategy": str, "prefetch": bool},
        {"seconds": NUM, "queries_per_sec": NUM, "avg_io_per_query": NUM,
         "seq_read_pct": NUM, "io_total": int, "io_by_tag": dict}, None),
    "adaptive_regret": (
        {"figure": str, "share_factor": int, "num_top": int,
         "pr_update": NUM},
        {"num_queries": int, "oracle": str, "oracle_io": NUM,
         "adaptive_io": NUM, "dominant_plan": str}, gates_adaptive),
    "shard_scaling": ({"shards": int}, {"retrieves_per_sec": NUM,
                                        "queries_per_sec": NUM}, gates_shard),
    "mvcc_contention": ({"threads": int, "pr_update": NUM, "arm": str},
                        {"retrieves_per_sec": NUM}, gates_mvcc),
    "read_concurrency": ({"threads": int, "arm": str},
                         {"retrieves_per_sec": NUM}, gates_readconc),
    "obs_overhead": ({"arm": str}, {"retrieves_per_sec": NUM}, gates_obs),
    "net_loopback": ({"verb": str}, {"samples": int}, gates_net),
    "throughput_scaling": ({"strategy": str, "threads": int},
                           {"queries_per_sec": NUM}, None),
}


def coords(doc, p):
    return tuple(p[k] for k in BENCHES[doc["bench"]][0])


def check_envelope(doc, path):
    bench = need(doc, "bench", str, "envelope")
    if bench not in BENCHES:
        fail(f"unknown bench '{bench}'")
    quick = need(doc, "quick", bool, "envelope")
    name = os.path.basename(path)
    if name.startswith("BENCH_") and (name != f"BENCH_{bench}.json" or quick):
        fail(f"{name}: a committed baseline must be BENCH_{bench}.json from "
             "a full run, not --quick")
    nonneg(need(doc, "device", dict, "envelope"),
           ("io_latency_us", "io_transfer_us"), int, "device")
    need(doc, "config", dict, "envelope")
    if "extra" in doc:
        need(doc, "extra", dict, "envelope")
    points = need(doc, "points", list, "envelope")
    if not points:
        fail("points is empty")
    coord_fields, measured, gates = BENCHES[bench]
    for p in points:
        ctx = f"{bench} point {p}"[:120]
        for f, t in {**coord_fields, **measured}.items():
            need(p, f, t, ctx)
        check_point(p, ctx)
    if len({coords(doc, p) for p in points}) != len(points):
        fail(f"{bench}: duplicate sweep point")
    if gates:
        gates(doc)
    return f"{bench} envelope OK ({len(points)} points)"


def compare(cur, base, tolerance):
    if cur["bench"] != base["bench"]:
        fail(f"baseline is bench '{base['bench']}', run is '{cur['bench']}'")
    row = ("net_loopback baseline: rate drop / p99 growth %"
           if cur["bench"] == "net_loopback"
           else "baseline: rate drop / p99 growth %")
    by_key = {coords(base, p): p for p in base["points"]}
    pairs = [(f"point {coords(cur, p)}", p, by_key[coords(cur, p)])
             for p in cur["points"] if coords(cur, p) in by_key]
    if not pairs:
        fail("no sweep point in common with the baseline")
    c_extra, b_extra = cur.get("extra", {}), base.get("extra", {})
    if "steady" in c_extra and "steady" in b_extra:
        pairs.append(("steady", c_extra["steady"], b_extra["steady"]))
    for ctx, c, b in pairs:
        ctx += " vs baseline"
        if b.get("avg_io_per_query", 0) > 0 and "avg_io_per_query" in c:
            gate("baseline: avg_io_per_query drift %", 100 * abs(
                c["avg_io_per_query"] - b["avg_io_per_query"]) /
                b["avg_io_per_query"], ctx)
        for f in RATES + ("throughput_rps",):
            if f in c and f in b:
                gate(row, 100 * (b[f] - c[f]) / b[f], f"{ctx} {f}",
                     tolerance)
        if b.get("p99_us", 0) > 0 and "p99_us" in c:
            gate(row, 100 * (c["p99_us"] - b["p99_us"]) / b["p99_us"],
                 f"{ctx} p99_us", tolerance)
    return f"{len(pairs)} comparisons within FLOORS[{row!r}] of the baseline"


def check_metrics(doc):
    counters = need(doc, "counters", dict, "metrics")
    nonneg(counters, counters, int, "metrics counters")
    gauges = need(doc, "gauges", dict, "metrics")
    for name in gauges:
        need(gauges, name, int, "metrics gauges")
    for name, h in need(doc, "histograms", dict, "metrics").items():
        ctx = f"metrics: histogram '{name}'"
        vals = [need(h, f, int, ctx) for f in
                ("count", "sum", "max", "p50", "p90", "p99")]
        if min(vals) < 0 or not h["p50"] <= h["p90"] <= h["p99"] <= h["max"]:
            fail(f"{ctx}: negative or unordered values")
        if h["count"] == 0 and (h["sum"] or h["max"]):
            fail(f"{ctx}: empty histogram with nonzero sum/max")
    return "metrics dump OK"


def check_netload(doc):
    if need(doc, "duration_s", NUM, "netload") <= 0 or \
            need(doc, "throughput_rps", NUM, "netload") < 0:
        fail("netload: bad duration or throughput")
    overall = need(doc, "overall", dict, "netload")
    endpoints = need(doc, "endpoints", list, "netload")
    for ctx, e in [("netload overall", overall)] + [
            (f"netload endpoint {need(e, 'host', str, 'netload')}:"
             f"{need(e, 'port', int, 'netload')}", e) for e in endpoints]:
        nonneg(e, ("clients", "connected", "ok", "busy", "rejected",
                   "transport_errors", "p50_us", "p99_us", "p999_us",
                   "max_us"), int, ctx)
        if e["connected"] > e["clients"] or not \
                e["p50_us"] <= e["p99_us"] <= e["p999_us"] <= e["max_us"]:
            fail(f"{ctx}: more connections than clients, or unordered "
                 "percentiles")
    if overall["ok"] <= 0 or overall["transport_errors"] != 0:
        fail("netload: no successful requests, or transport errors")
    if not endpoints or sum(e["ok"] for e in endpoints) != overall["ok"]:
        fail("netload: per-endpoint ok counts do not sum to overall")
    return f"net_load dump OK ({overall['ok']} requests)"


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc if isinstance(doc, dict) else fail("top level is not an object")


def check_file(path, baseline=None, tolerance=None):
    """Validates `path` (and compares it with `baseline`); returns a
    summary line or raises CheckError."""
    doc = load(path)
    if "counters" in doc:
        return check_metrics(doc)
    if doc.get("bench") == "net_load":
        return check_netload(doc)
    summary = check_envelope(doc, path)
    if baseline:
        base = load(baseline)
        check_envelope(base, baseline)
        summary += "; " + compare(doc, base, tolerance)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("file")
    parser.add_argument("--baseline")
    parser.add_argument("--tolerance", type=float,
                        help="rate-drop / p99-growth bound PCT for "
                             "--baseline (default: the bench's FLOORS row)")
    args = parser.parse_args()
    try:
        print(f"check_bench_json: {args.file}: "
              f"{check_file(args.file, args.baseline, args.tolerance)}")
    except CheckError as e:
        print(f"check_bench_json: FAIL: {args.file}: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
