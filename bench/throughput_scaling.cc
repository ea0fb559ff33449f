// Throughput scaling of the concurrent execution engine (src/exec/).
//
// For each strategy, builds one cache-resident database (the buffer pool
// holds the whole working set, so after a warm-up window every fetch is a
// hit and the hot path is the sharded page-table latch), then sweeps
// 1..16 worker threads in timed mode and reports queries/sec, speedup
// over 1 thread, and latency percentiles. It does not scale today: on a
// 4-vCPU host DFS, DFSCACHE, SMART and DFSCLUST get 0.45-0.67x of their
// 1-thread rate at 2-16 threads, although four independent 1-thread
// processes reach 3.3x, so the limit is shared state on the hit path, not
// the machine (ROADMAP.md tracks the fix). No gate checks the speedup.
//
//   $ ./build/bench/throughput_scaling
//   $ ./build/bench/throughput_scaling --duration=1.0
//   $ ./build/bench/throughput_scaling --io-latency-us=50
//   $ ./build/bench/throughput_scaling --json  # BENCH_throughput_scaling.json
//
// --io-latency-us simulates device latency: every physical page I/O
// sleeps that long *outside* the DiskManager latch, so concurrent
// sessions overlap their I/O stalls exactly as real clients overlap
// device waits. With a cold pool this shows I/O-bound scaling even on
// one core.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"

namespace objrep {
namespace bench {
namespace {

DatabaseSpec CacheResidentSpec() {
  DatabaseSpec spec;
  spec.num_parents = 300;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  spec.buffer_pages = 2048;  // whole database fits: reads hit after warmup
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.size_cache = 60;
  spec.cache_buckets = 64;
  spec.seed = 17;
  return spec;
}

WorkloadSpec ReadOnlySpec() {
  WorkloadSpec wl;
  wl.num_queries = 200;
  wl.num_top = 12;
  wl.pr_update = 0.0;
  wl.seed = 29;
  return wl;
}

void RunSweep(const BenchArgs& args) {
  const std::vector<StrategyKind> kinds = {
      StrategyKind::kDfs,          StrategyKind::kBfs,
      StrategyKind::kBfsNoDup,     StrategyKind::kDfsCache,
      StrategyKind::kDfsClust,     StrategyKind::kSmart,
      StrategyKind::kDfsClustCache, StrategyKind::kBfsJoinIndex,
      StrategyKind::kBfsHash};
  const std::vector<uint32_t> thread_counts = {1, 2, 4, 8, 16};
  // Each point first runs one unmeasured window at its own thread count,
  // faulting the working set into the pool (and the subobject cache, for
  // the caching strategies): the measured window sees the steady
  // cache-resident state.
  const Timing timing{args.duration, args.duration, 1};

  Envelope env = MakeEnvelope("throughput_scaling", args);
  AddTiming(&env.config, timing)
      .Raw("db", SpecJson(CacheResidentSpec()))
      .Raw("workload", WorkloadJson(ReadOnlySpec()));

  std::printf("%-16s %8s %12s %9s %10s %10s %10s\n", "strategy", "threads",
              "queries/s", "speedup", "p50 ms", "p99 ms", "p999 ms");
  for (StrategyKind kind : kinds) {
    std::unique_ptr<ComplexDatabase> db;
    Status s = BuildDatabase(CacheResidentSpec(), &db);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
    db->disk->set_io_latency_us(args.io_latency_us);
    std::vector<Query> queries;
    s = GenerateWorkload(ReadOnlySpec(), *db, &queries);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());

    double base_qps = 0;
    for (uint32_t k : thread_counts) {
      const Window w = Measure(
          timing, ConcurrentRunnerWindow(kind, db.get(), &queries, k, 101));
      if (k == 1) base_qps = w.queries_per_sec();
      const LatencySummary& l = w.retrieve_latency;
      std::printf("%-16s %8u %12.0f %8.2fx %10.3f %10.3f %10.3f\n",
                  StrategyKindName(kind), k, w.queries_per_sec(),
                  base_qps > 0 ? w.queries_per_sec() / base_qps : 0.0,
                  l.p50_us / 1000.0, l.p99_us / 1000.0, l.p999_us / 1000.0);
      JsonObject point;
      point.Str("strategy", StrategyKindName(kind)).Int("threads", k);
      env.points.push_back(AddWindow(&point, w));
    }
  }
  WriteEnvelope(args.json_path, env);
}

}  // namespace
}  // namespace bench
}  // namespace objrep

int main(int argc, char** argv) {
  std::string trace_path;
  objrep::bench::BenchArgs args;
  args.duration = 0.25;
  // --trace-out turns tracing on for the whole sweep: enabled-vs-disabled
  // throughput at 8 threads is the tracing-overhead yardstick.
  const objrep::bench::ExtraFlag trace_flag{
      "--trace-out", [&trace_path](const char* v) {
        trace_path = v;
        return !trace_path.empty();
      }};
  if (!objrep::bench::ParseBenchArgs(
          argc, argv, "throughput_scaling",
          objrep::bench::kDurationFlag | objrep::bench::kIoLatencyFlag |
              objrep::bench::kJsonFlag,
          &args, {trace_flag})) {
    return 2;
  }
  if (!trace_path.empty()) objrep::Trace::SetEnabled(true);
  objrep::bench::PrintTitle(
      "Throughput scaling: concurrent sessions over one shared database",
      "cache-resident read-only stream; timed sweep per (strategy, K)");
  objrep::bench::RunSweep(args);
  if (!trace_path.empty()) {
    objrep::Status s = objrep::Trace::FlushToFile(trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "trace flush failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return 0;
}
