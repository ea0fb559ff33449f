// Scale-out of the horizontally sharded engine (src/shard/, DESIGN.md
// §14): fixed offered concurrency, swept shard count.
//
// K closed-loop client threads drive one ShardedEngine with a mixed
// RETRIEVE/UPDATE stream (the Figure-3 shape plus updates) for a timed
// window, at 1, 2, 4, and 8 shards. The single-shard point is the
// baseline: same engine code path, one lock manager, one WAL, one buffer
// pool — so every update X-locks the only ChildRel instance and stalls
// the whole stream for its I/O. With N shards an update only X-locks the
// holder shards and each shard commits on its own WAL, so independent
// clients overlap; with --io-latency-us > 0 the stalls are real device
// waits and the aggregate retrieve throughput should scale out (>= 1.6x
// at 2 shards, >= 2.5x at 4 — floors in tools/check_bench_json.py's
// FLOORS table).
//
// Each shard gets the full buffer/cache budget, the scale-out semantics
// of a cluster where every node brings its own memory; the sweep measures
// the whole proposition (partitioned locks + WALs + pools + memory), not
// lock splitting alone.
//
//   $ ./build/bench/shard_scaling
//   $ ./build/bench/shard_scaling --quick          (CI smoke: 1 and 2)
//   $ ./build/bench/shard_scaling --json          (BENCH_shard_scaling.json)
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "core/experiment_config.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"

namespace objrep {
namespace bench {
namespace {

DatabaseSpec ShardBenchSpec() {
  DatabaseSpec spec;
  // Large enough that even an 8-shard split leaves each shard's slice
  // well beyond its buffer: every point stays I/O-bound and the sweep
  // measures parallelism (per-shard locks, WALs, overlapping device
  // waits), not the aggregate-memory windfall of N pools.
  spec.num_parents = 20000;
  spec.size_unit = 5;
  // ShareFactor 1: private subobjects, the partitionable workload a
  // horizontal deployment exists for. Shared subobjects are replicated to
  // every holder shard and their updates fan out (the oracle tests cover
  // that path); here each update routes to exactly one shard, so the
  // sweep isolates what sharding buys on shardable data.
  spec.use_factor = 1;
  spec.overlap_factor = 1;
  spec.num_child_rels = 1;
  // Below the working set: the single-shard baseline keeps paying
  // physical I/O, and each added shard brings both another lock/WAL
  // domain and another pool.
  spec.buffer_pages = 128;
  spec.seed = 71;
  spec.enable_wal = true;
  return spec;
}

WorkloadSpec MixedSpec() {
  WorkloadSpec wl;
  wl.num_queries = 600;
  wl.num_top = 8;
  wl.pr_update = 0.25;
  wl.update_batch = 4;
  wl.seed = 83;
  return wl;
}

void RunSweep(StrategyKind kind, uint32_t clients, const BenchArgs& args) {
  const std::vector<uint32_t> shard_counts =
      args.quick ? std::vector<uint32_t>{1, 2}
                 : std::vector<uint32_t>{1, 2, 4, 8};
  // Quick windows are short and noisy on a shared host: each --quick
  // point is the median of 3 windows.
  const Timing timing{args.duration * 0.25, args.duration,
                      args.quick ? 3 : 1};

  Envelope env = MakeEnvelope("shard_scaling", args);
  AddTiming(&env.config, timing)
      .Str("strategy", StrategyKindName(kind))
      .Int("clients", clients)
      .Raw("db", SpecJson(ShardBenchSpec()))
      .Raw("workload", WorkloadJson(MixedSpec()));

  std::printf("%-8s %10s %14s %12s %10s\n", "shards", "clients",
              "retrieves/s", "queries/s", "scaleout");
  double base_rps = 0;
  for (uint32_t n : shard_counts) {
    std::unique_ptr<shard::ShardedDatabase> sdb;
    Status s = shard::BuildShardedDatabase(ShardBenchSpec(), n, &sdb);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
    for (const auto& sh : sdb->shards) {
      sh->disk->set_io_latency_us(args.io_latency_us);
    }
    // The retained reference database gives every shard count the same
    // query stream.
    std::vector<Query> queries;
    s = GenerateWorkload(MixedSpec(), *sdb->reference, &queries);
    OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
    shard::ShardedEngine engine(sdb.get(), {});

    // Client c walks the stream from offset 17c, so concurrent clients
    // issue different queries.
    const Window w = Measure(timing, [&](double seconds) {
      return ClosedLoop(clients, seconds, [&](uint32_t c, uint64_t i) {
        const Query& q = queries[(17 * c + i) % queries.size()];
        if (q.kind == Query::Kind::kRetrieve) {
          RetrieveResult result;
          Status st = engine.ExecuteRetrieve(kind, q, &result);
          OBJREP_CHECK_MSG(st.ok(), st.ToString().c_str());
          return true;
        }
        Status st = engine.ExecuteUpdate(kind, q);
        OBJREP_CHECK_MSG(st.ok(), st.ToString().c_str());
        return false;
      });
    });
    if (n == 1) base_rps = w.retrieves_per_sec();
    std::printf("%-8u %10u %14.0f %12.0f %9.2fx\n", n, clients,
                w.retrieves_per_sec(), w.queries_per_sec(),
                base_rps > 0 ? w.retrieves_per_sec() / base_rps : 0.0);
    JsonObject point;
    point.Int("shards", n);
    env.points.push_back(AddWindow(&point, w));
  }
  WriteEnvelope(args.json_path, env);
}

}  // namespace
}  // namespace bench
}  // namespace objrep

int main(int argc, char** argv) {
  using objrep::StrategyKind;
  StrategyKind kind = StrategyKind::kDfs;
  uint32_t clients = 16;
  objrep::bench::BenchArgs args;
  args.duration = 2.0;
  args.quick_duration = 0.5;
  args.io_latency_us = 150;
  const objrep::bench::ExtraFlag strategy_flag{
      "--strategy", [&kind](const char* v) {
        return objrep::ParseStrategyName(v, &kind).ok();
      }};
  if (!objrep::bench::ParseBenchArgs(
          argc, argv, "shard_scaling",
          objrep::bench::kQuickFlag | objrep::bench::kDurationFlag |
              objrep::bench::kIoLatencyFlag | objrep::bench::kJsonFlag,
          &args,
          {objrep::bench::U32Flag("--clients", &clients), strategy_flag}) ||
      clients == 0) {
    return 2;
  }
  objrep::bench::PrintTitle(
      "Shard scale-out: fixed offered concurrency, swept shard count",
      "closed-loop mixed stream; per-shard locks, WALs, and pools");
  objrep::bench::RunSweep(kind, clients, args);
  return 0;
}
