// Adaptive-strategy regret vs. the oracle-best fixed strategy
// (DESIGN.md §12).
//
// At every sweep point the oracle is the cheapest of ADAPTIVE's candidate
// set (DFS, BFS, DFSCACHE, SMART, DFSCLUST) measured under the identical
// protocol; regret is how much worse ADAPTIVE's average *retrieve* I/O
// did relative to it:
//
//   regret = max(0, adaptive_io - oracle_io) / max(oracle_io, 1.0)
//
// (the denominator floor keeps sub-page-per-query points from amplifying
// noise into huge relative numbers — below 1 page/query the regret is
// effectively absolute).
//
// Retrieve I/O is the comparison axis — it is what plan selection
// controls — and every entrant, oracle candidates included, runs as the
// adaptive engine with its plan *pinned* (AdaptiveStrategy::PinPlan).
// Updates must write through to every representation (ChildRel, the
// ClusterRel translation, cache invalidation) so any plan sees consistent
// data; a bare fixed strategy maintains only its own structure, silently
// letting the others go stale and sparing itself the buffer pressure the
// maintenance traffic exerts on its retrieves. Pinning gives every
// entrant the identical update path, isolating plan choice.
//
// Protocol per (point, strategy): fresh database, same seed; the same
// query sequence is run TWICE with one strategy instance. The first run is
// warm-up — ADAPTIVE spends it on exploration and calibration, DFSCACHE
// spends it filling the cache — and the second run is the measurement.
// Every strategy gets the same two-run treatment, so the oracle is a warm
// oracle and ADAPTIVE cannot win (or lose) on warm-up effects.
//
// Sweep points: the Figure 3 NumTop sweep (ShareFactor 5, retrieves only)
// and a Figure 4 sub-grid over (ShareFactor, NumTop, Pr(UPDATE)) covering
// the corners where different strategies win.
//
// Usage:
//   $ ./build/bench/adaptive_regret                  # full sweep
//   $ ./build/bench/adaptive_regret --quick          # CI subset
//   $ ./build/bench/adaptive_regret --json=out.json  # + machine-readable
//
// Validate the JSON with: tools/check_bench_json.py out.json
#include <cinttypes>
#include <cmath>
#include <cstring>

#include "bench/bench_util.h"
#include "core/adaptive.h"

using namespace objrep;
using namespace objrep::bench;

namespace {

struct SweepPoint {
  const char* figure;  // "fig3" or "fig4"
  uint32_t share_factor;
  uint32_t num_top;
  double pr_update;
  uint32_t query_budget;
};

struct PointResult {
  SweepPoint point;
  uint32_t num_queries = 0;
  StrategyKind oracle_kind = StrategyKind::kDfs;
  double oracle_io = 0;
  double adaptive_io = 0;
  double regret = 0;
  StrategyKind dominant_plan = StrategyKind::kDfs;  // of the measured run
};

std::vector<SweepPoint> BuildSweep(bool quick) {
  std::vector<SweepPoint> points;
  // Figure 3: NumTop sweep at the paper defaults, retrieves only.
  const std::vector<uint32_t> fig3_tops =
      quick ? std::vector<uint32_t>{1, 20, 200, 2000}
            : std::vector<uint32_t>{1,   2,   5,    10,   20,   50,  100,
                                    200, 500, 1000, 2000, 5000, 10000};
  for (uint32_t nt : fig3_tops) {
    points.push_back({"fig3", 5, nt, 0.0, 400});
  }
  // Figure 4 sub-grid: the corners of the (ShareFactor, NumTop,
  // Pr(UPDATE)) cube where the winning regions meet (clustering near
  // ShareFactor 1, caching at low NumTop / low Pr(UPDATE), BFS at high
  // NumTop / high Pr(UPDATE)).
  const std::vector<uint32_t> fig4_sfs =
      quick ? std::vector<uint32_t>{1, 50} : std::vector<uint32_t>{1, 8, 50};
  const std::vector<uint32_t> fig4_tops =
      quick ? std::vector<uint32_t>{1, 1000}
            : std::vector<uint32_t>{1, 50, 1000};
  const std::vector<double> fig4_prs =
      quick ? std::vector<double>{0.0, 0.95}
            : std::vector<double>{0.0, 0.5, 0.95};
  for (uint32_t sf : fig4_sfs) {
    for (uint32_t nt : fig4_tops) {
      for (double pr : fig4_prs) {
        points.push_back({"fig4", sf, nt, pr, 160});
      }
    }
  }
  return points;
}

DatabaseSpec SpecFor(const SweepPoint& p) {
  DatabaseSpec spec;
  spec.use_factor = p.share_factor;  // overlap stays 1
  spec.build_cache = true;           // full candidate set everywhere
  spec.build_cluster = true;
  return spec;
}

WorkloadSpec WorkloadFor(const SweepPoint& p) {
  WorkloadSpec wl;
  wl.num_top = p.num_top;
  wl.pr_update = p.pr_update;
  // Update-heavy mixes dilute the retrieve sample the regret is computed
  // over; stretch the sequence (bounded) so enough retrieves land in the
  // measured run.
  uint32_t n = AutoNumQueries(p.num_top, p.query_budget);
  if (p.pr_update > 0) {
    double scale = 1.0 / std::max(0.05, 1.0 - p.pr_update);
    n = std::min<uint32_t>(static_cast<uint32_t>(n * scale),
                           20 * p.query_budget);
  }
  wl.num_queries = n;
  wl.seed = 70000 + p.share_factor * 977 + p.num_top * 13 +
            static_cast<uint64_t>(p.pr_update * 100);
  return wl;
}

/// Warm-up run then measured run with one adaptive-engine instance on one
/// fresh database; returns the measured avg retrieve I/O. `pin` other
/// than kAdaptive runs the engine pinned to that plan (an oracle
/// entrant). *dominant (free-running entrant only) gets the plan chosen
/// most often during the measured run.
double MeasureWarm(const SweepPoint& p, StrategyKind pin,
                   const StrategyOptions& options,
                   StrategyKind* dominant = nullptr) {
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(SpecFor(p), &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::vector<Query> queries;
  s = GenerateWorkload(WorkloadFor(p), *db, &queries);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());

  auto adaptive = std::make_unique<AdaptiveStrategy>(db.get(), options);
  if (pin != StrategyKind::kAdaptive) {
    OBJREP_CHECK_MSG(adaptive->PinPlan(pin), "oracle plan not a candidate");
  }

  // At small NumTop the dynamic strategies' structures (cache contents,
  // cluster residency) take hundreds of queries to reach steady state, so
  // those points get a second warm-up pass; large-NumTop queries converge
  // within a run.
  const int warmup_runs = p.num_top <= 50 ? 2 : 1;
  RunResult warmup, measured;
  for (int w = 0; w < warmup_runs; ++w) {
    s = RunWorkload(adaptive.get(), db.get(), queries, &warmup);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  }
  uint64_t before[16] = {};
  for (StrategyKind k : adaptive->candidates()) {
    before[static_cast<size_t>(k)] = adaptive->plan_count(k);
  }
  s = RunWorkload(adaptive.get(), db.get(), queries, &measured);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  if (dominant != nullptr) {
    uint64_t best = 0;
    *dominant = adaptive->candidates().front();
    for (StrategyKind k : adaptive->candidates()) {
      uint64_t n = adaptive->plan_count(k) - before[static_cast<size_t>(k)];
      if (n > best) {
        best = n;
        *dominant = k;
      }
    }
  }
  return measured.AvgRetrieveIo();
}

const StrategyKind kCandidates[] = {
    StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kDfsCache,
    StrategyKind::kSmart, StrategyKind::kDfsClust};

PointResult MeasurePoint(const SweepPoint& p,
                         const StrategyOptions& options) {
  PointResult r;
  r.point = p;
  r.num_queries = WorkloadFor(p).num_queries;
  for (StrategyKind k : kCandidates) {
    double io = MeasureWarm(p, k, options);
    if (r.oracle_io == 0 || io < r.oracle_io) {
      r.oracle_io = io;
      r.oracle_kind = k;
    }
  }
  r.adaptive_io =
      MeasureWarm(p, StrategyKind::kAdaptive, options, &r.dominant_plan);
  r.regret = std::max(0.0, r.adaptive_io - r.oracle_io) /
             std::max(r.oracle_io, 1.0);
  return r;
}

int Run(uint32_t calibration_window, const BenchArgs& args) {
  PrintTitle("Adaptive regret vs. oracle-best fixed strategy",
             "warm runs; candidates DFS/BFS/DFSCACHE/SMART/DFSCLUST; "
             "regret over avg retrieve I/O");
  StrategyOptions options;
  options.calibration_window = calibration_window;

  Envelope env = MakeEnvelope("adaptive_regret", args);
  std::string names;
  for (StrategyKind k : kCandidates) {
    names += std::string(names.empty() ? "\"" : ", \"") +
             StrategyKindName(k) + "\"";
  }
  env.config.Raw("candidates", "[" + names + "]")
      .Int("calibration_window", calibration_window);

  std::printf("%5s %4s %7s %6s %9s %11s %11s %8s   %s\n", "fig", "SF",
              "NumTop", "PrUpd", "oracle", "oracle I/O", "adaptive",
              "regret", "plan");
  double max_regret = 0;
  for (const SweepPoint& p : BuildSweep(args.quick)) {
    PointResult r = MeasurePoint(p, options);
    std::printf("%5s %4u %7u %6.2f %9s %11.1f %11.1f %7.1f%%   %s\n",
                p.figure, p.share_factor, p.num_top, p.pr_update,
                StrategyKindName(r.oracle_kind), r.oracle_io, r.adaptive_io,
                100 * r.regret, StrategyKindName(r.dominant_plan));
    max_regret = std::max(max_regret, r.regret);
    env.points.push_back(JsonObject()
                             .Str("figure", p.figure)
                             .Int("share_factor", p.share_factor)
                             .Int("num_top", p.num_top)
                             .Num("pr_update", p.pr_update)
                             .Int("num_queries", r.num_queries)
                             .Str("oracle", StrategyKindName(r.oracle_kind))
                             .Num("oracle_io", r.oracle_io, 4)
                             .Num("adaptive_io", r.adaptive_io, 4)
                             .Str("dominant_plan",
                                  StrategyKindName(r.dominant_plan)));
  }
  PrintRule();
  std::printf("%zu points, max regret %.1f%% (acceptance: <= 10%% at every "
              "point)\n", env.points.size(), 100 * max_regret);
  WriteEnvelope(args.json_path, env);
  return max_regret <= 0.10 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint32_t window = StrategyOptions{}.calibration_window;
  BenchArgs args;
  if (!ParseBenchArgs(argc, argv, "adaptive_regret", kQuickFlag | kJsonFlag,
                      &args, {U32Flag("--calibration-window", &window)})) {
    return 2;
  }
  return Run(window, args);
}
