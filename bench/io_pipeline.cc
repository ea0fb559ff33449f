// Wall-clock effect of the batched I/O & prefetch pipeline (DESIGN.md §9)
// on a simulated disk with per-seek latency.
//
// The I/O *counts* are identical with prefetch on or off by construction
// (tests/prefetch_equivalence_test.cc asserts it); what changes is the
// shape of the reads. Sorted hint batches over bulk-loaded leaves form
// contiguous page runs, so the vectored read pays one seek where demand
// paging pays one per page. Read-ahead runs on the query's own thread, so
// the win is fewer seeks, not overlapped ones. This harness makes it
// visible: a disk-bound database (every child probed, tiny buffer pool), a
// nonzero --io-latency-us, and each strategy with prefetch off and on.
//
//   $ ./build/bench/io_pipeline                  # full run, 100us seeks
//   $ ./build/bench/io_pipeline --quick          # CI smoke: 1 run a point
//   $ ./build/bench/io_pipeline --io-latency-us=250
//   $ ./build/bench/io_pipeline --json           # also BENCH_io_pipeline.json
//   $ ./build/bench/io_pipeline --json=out.json
//
// DFSCLUST is run at use_factor=1 (every child belongs to its parent's
// cluster), where its ClusterRel extent scan is nearly all sequential and
// extent read-ahead approaches the device's transfer-bound floor.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/io_context.h"

namespace objrep {
namespace bench {
namespace {

struct RunPoint {
  bool prefetch = false;
  double seconds = 0;
  double qps = 0;
  double avg_io = 0;
  double seq_pct = 0;
  uint64_t io_total = 0;      // raw pages over the run, == sum of io_by_tag
  IoTagBreakdown io_by_tag;
};

DatabaseSpec DiskBoundSpec(uint32_t io_latency_us,
                           uint32_t io_transfer_us) {
  DatabaseSpec spec;
  spec.num_parents = 2000;
  spec.size_unit = 5;
  spec.use_factor = 1;     // every child in-cluster: DFSCLUST extent-bound
  spec.overlap_factor = 1;
  spec.buffer_pages = 100;  // the paper's buffer: working set never fits
  spec.build_cluster = true;
  spec.io_latency_us = io_latency_us;
  spec.io_transfer_us = io_transfer_us;
  spec.seed = 53;
  return spec;
}

RunPoint MeasurePoint(StrategyKind kind, const WorkloadSpec& wl,
                      uint32_t io_latency_us, uint32_t io_transfer_us,
                      bool prefetch) {
  DatabaseSpec spec = DiskBoundSpec(io_latency_us, io_transfer_us);
  spec.prefetch = prefetch;
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(spec, &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::vector<Query> queries;
  s = GenerateWorkload(wl, *db, &queries);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::unique_ptr<Strategy> strategy;
  s = MakeStrategy(kind, db.get(), {}, &strategy);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  RunResult r;
  auto t0 = std::chrono::steady_clock::now();
  s = RunWorkload(strategy.get(), db.get(), queries, &r);
  auto t1 = std::chrono::steady_clock::now();
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  RunPoint p;
  p.prefetch = prefetch;
  p.seconds = std::chrono::duration<double>(t1 - t0).count();
  p.qps = p.seconds > 0 ? r.num_queries / p.seconds : 0;
  p.avg_io = r.AvgIoPerQuery();
  p.seq_pct = 100.0 * r.io.seq_fraction();
  p.io_total = r.io.total();
  p.io_by_tag = r.io_by_tag;
  return p;
}

// The workload is deterministic and the disk is simulated, so every run
// of a cell does identical work; host-side noise (scheduler, frequency,
// neighbors) can only slow a run down, never speed it up. The fastest of
// five runs is therefore the least-perturbed estimate of the cell's
// throughput, and is far more stable run-to-run than any single timing.
constexpr int kRunsPerPoint = 5;

RunPoint MeasurePointStable(StrategyKind kind, const WorkloadSpec& wl,
                            uint32_t io_latency_us, uint32_t io_transfer_us,
                            bool prefetch, int runs) {
  RunPoint best;
  for (int i = 0; i < runs; ++i) {
    RunPoint p =
        MeasurePoint(kind, wl, io_latency_us, io_transfer_us, prefetch);
    if (i == 0 || p.qps > best.qps) best = p;
  }
  return best;
}

void RunBench(uint32_t io_transfer_us, const BenchArgs& args) {
  const std::vector<StrategyKind> kinds = {
      StrategyKind::kBfs, StrategyKind::kDfs, StrategyKind::kDfsClust};
  // Quick mode trims the repeats, not the points or the query stream: a
  // --quick measurement has the full run's coordinates and I/O counts, so
  // it is comparable, cell for cell, against the committed baseline.
  const int runs = args.quick ? 1 : kRunsPerPoint;
  WorkloadSpec wl;
  wl.num_queries = 40;
  wl.num_top = 50;
  wl.pr_update = 0.0;
  wl.seed = 54;

  Envelope env = MakeEnvelope("io_pipeline", args);
  env.io_transfer_us = io_transfer_us;
  env.config.Int("runs_per_point", runs)
      .Raw("db", SpecJson(DiskBoundSpec(args.io_latency_us, io_transfer_us)))
      .Raw("workload", WorkloadJson(wl));

  std::printf("%-10s %-9s %9s %11s %9s %11s %7s\n", "strategy", "prefetch",
              "seconds", "queries/s", "speedup", "avg I/O", "seq%");
  for (StrategyKind kind : kinds) {
    // [0] is the prefetch-off baseline the speedup is relative to.
    const RunPoint points[] = {
        MeasurePointStable(kind, wl, args.io_latency_us, io_transfer_us,
                           /*prefetch=*/false, runs),
        MeasurePointStable(kind, wl, args.io_latency_us, io_transfer_us,
                           /*prefetch=*/true, runs)};
    const double base_qps = points[0].qps;
    for (const RunPoint& p : points) {
      std::printf("%-10s %-9s %9.3f %11.0f %8.2fx %11.1f %6.1f%%\n",
                  StrategyKindName(kind), p.prefetch ? "on" : "off",
                  p.seconds, p.qps, base_qps > 0 ? p.qps / base_qps : 0.0,
                  p.avg_io, p.seq_pct);
      env.points.push_back(JsonObject()
                               .Str("strategy", StrategyKindName(kind))
                               .Bool("prefetch", p.prefetch)
                               .Num("seconds", p.seconds, 4)
                               .Num("queries_per_sec", p.qps)
                               .Num("avg_io_per_query", p.avg_io)
                               .Num("seq_read_pct", p.seq_pct, 1)
                               .Int("io_total", p.io_total)
                               .Raw("io_by_tag", IoByTagJson(p.io_by_tag)));
    }
  }
  WriteEnvelope(args.json_path, env);
}

}  // namespace
}  // namespace bench
}  // namespace objrep

int main(int argc, char** argv) {
  uint32_t io_transfer_us = 50;
  objrep::bench::BenchArgs args;
  args.io_latency_us = 100;
  if (!objrep::bench::ParseBenchArgs(
          argc, argv, "io_pipeline",
          objrep::bench::kQuickFlag | objrep::bench::kIoLatencyFlag |
              objrep::bench::kJsonFlag,
          &args,
          {objrep::bench::U32Flag("--io-transfer-us", &io_transfer_us)})) {
    return 2;
  }
  objrep::bench::PrintTitle(
      "I/O pipeline: vectored reads + read-ahead on a seek-charging disk",
      "identical I/O counts; hinted reads coalesce into fewer seeks");
  objrep::bench::RunBench(io_transfer_us, args);
  return 0;
}
