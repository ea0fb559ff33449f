// Demand-miss read concurrency (DESIGN.md §17): fixed strategy, swept
// thread count, serialized-miss baseline vs overlapped miss I/O.
//
// K closed-loop client threads drive one ComplexDatabase through the
// concurrent runner for a timed window, once with the pre-§17 behavior
// (SetSerializeMissIo(true): every demand-miss read and dirty-victim
// write-back runs under the pool-global evict_mu_, so misses across the
// whole process queue behind one latch) and once with the shipped path
// (the in-flight claim table lets each misser read with evict_mu_
// released, coalescing duplicate missers onto one device read). Same
// database shape, same query stream, same simulated device: the sweep
// isolates what holding evict_mu_ across ReadPage costs.
//
// The spec is deliberately cache-hostile: the working set is far larger
// than the buffer, updates are off, so nearly every retrieve pays a
// demand miss at --io-latency-us a page. Serialized, aggregate
// throughput is capped near one device's worth regardless of K;
// overlapped, K misses wait on the device concurrently. The committed
// floor (FLOORS in tools/check_bench_json.py): at 8 threads the
// concurrent path sustains >= 3x the serialized aggregate retrieve
// throughput.
//
//   $ ./build/bench/read_concurrency
//   $ ./build/bench/read_concurrency --quick      (CI smoke: no floor point)
//   $ ./build/bench/read_concurrency --json       (BENCH_read_concurrency.json)
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objrep {
namespace bench {
namespace {

DatabaseSpec ColdSpec(uint32_t io_latency_us) {
  DatabaseSpec spec;
  // Working set well beyond the buffer: retrieves keep missing, so the
  // bench measures the miss path itself, not cache hits around it.
  spec.num_parents = 8000;
  spec.size_unit = 5;
  spec.use_factor = 1;
  spec.overlap_factor = 1;
  spec.num_child_rels = 1;
  spec.buffer_pages = 64;
  spec.seed = 211;
  spec.enable_wal = true;
  spec.io_latency_us = io_latency_us;
  return spec;
}

WorkloadSpec ReadOnlyMix() {
  WorkloadSpec wl;
  wl.num_queries = 400;
  // Point-ish retrieves: each touches a handful of pages, so the per-miss
  // latch cost dominates and queuing behind evict_mu_ is visible.
  wl.num_top = 2;
  wl.pr_update = 0.0;
  wl.seed = 151;
  return wl;
}

/// One arm of a sweep point on a fresh database: warm-up at a quarter of
/// the window settles pools (the cache-hostile spec keeps the measured
/// window miss-dominated regardless), then one measured window.
Window RunArm(bool serialize_miss_io, uint32_t threads,
              const BenchArgs& args, const Timing& timing) {
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(ColdSpec(args.io_latency_us), &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::vector<Query> queries;
  s = GenerateWorkload(ReadOnlyMix(), *db, &queries);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  db->pool->SetSerializeMissIo(serialize_miss_io);
  return Measure(timing,
                 ConcurrentRunnerWindow(StrategyKind::kDfs, db.get(),
                                        &queries, threads, 23));
}

void RunSweep(const BenchArgs& args) {
  // The quick sweep stays below the floor point (8 threads): CI smoke
  // validates the harness; the committed JSON carries the claim.
  const std::vector<uint32_t> thread_counts =
      args.quick ? std::vector<uint32_t>{1, 4}
                 : std::vector<uint32_t>{1, 2, 4, 8};

  const Timing timing{args.duration * 0.25, args.duration, 1};
  Envelope env = MakeEnvelope("read_concurrency", args);
  AddTiming(&env.config, timing)
      .Str("strategy", "DFS")
      .Raw("db", SpecJson(ColdSpec(args.io_latency_us)))
      .Raw("workload", WorkloadJson(ReadOnlyMix()));

  std::printf("%-8s %16s %16s %10s\n", "threads", "serial ret/s",
              "overlap ret/s", "speedup");
  for (uint32_t k : thread_counts) {
    const Window serialized = RunArm(true, k, args, timing);
    const Window overlapped = RunArm(false, k, args, timing);
    std::printf("%-8u %16.0f %16.0f %9.2fx\n", k,
                serialized.retrieves_per_sec(), overlapped.retrieves_per_sec(),
                serialized.retrieves_per_sec() > 0
                    ? overlapped.retrieves_per_sec() /
                          serialized.retrieves_per_sec()
                    : 0.0);
    for (const auto& [arm, w] : {std::pair{"serialized", serialized},
                                 {"overlapped", overlapped}}) {
      JsonObject point;
      point.Int("threads", k).Str("arm", arm);
      env.points.push_back(AddWindow(&point, w));
    }
  }
  WriteEnvelope(args.json_path, env);
}

}  // namespace
}  // namespace bench
}  // namespace objrep

int main(int argc, char** argv) {
  objrep::bench::BenchArgs args;
  args.duration = 2.0;
  args.quick_duration = 0.4;
  args.io_latency_us = 100;
  if (!objrep::bench::ParseBenchArgs(
          argc, argv, "read_concurrency",
          objrep::bench::kQuickFlag | objrep::bench::kDurationFlag |
              objrep::bench::kIoLatencyFlag | objrep::bench::kJsonFlag,
          &args)) {
    return 2;
  }
  objrep::bench::PrintTitle(
      "Read concurrency: miss I/O under evict_mu_ vs coalesced overlap",
      "closed-loop clients; cold cache-hostile retrieves, swept threads");
  objrep::bench::RunSweep(args);
  return 0;
}
