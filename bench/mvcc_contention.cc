// MVCC vs two-phase locking under a contended update mix (DESIGN.md §15):
// fixed strategy, swept thread count and update probability.
//
// K closed-loop client threads drive one ComplexDatabase through the
// concurrent runner for a timed window, once in 2PL mode (table S/X
// locks, write-through WAL transactions per update) and once in MVCC mode
// (snapshot retrieves without any table lock, version-store commits with
// one logical WAL record). Same database shape, same query stream, same
// simulated device: the sweep isolates what the concurrency control
// protocol costs.
//
// Under 2PL every update X-locks the single ChildRel: it serializes
// behind other updates and stalls every retrieve for the duration of its
// write-through commit (per-target page installs plus the log sync, all
// at --io-latency-us a page). Under MVCC retrieves never wait and an
// update is a version install plus one small logical record and sync, so
// device waits overlap across clients even on one core. The committed
// floor (FLOORS in tools/check_bench_json.py): at 8 threads and
// Pr(UPDATE) = 0.3, MVCC aggregate retrieve throughput >= 2x 2PL's.
//
// The MVCC fold (applying versions to base pages) runs after the timed
// window closes — it is quiescent-point maintenance, not per-query work,
// and the runner excludes it from the measured wall time on both sides.
//
//   $ ./build/bench/mvcc_contention
//   $ ./build/bench/mvcc_contention --quick       (CI smoke: no floor point)
//   $ ./build/bench/mvcc_contention --json        (BENCH_mvcc_contention.json)
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

DatabaseSpec ContentionSpec(bool mvcc, uint32_t io_latency_us) {
  DatabaseSpec spec;
  // Well beyond the buffer so retrieves keep paying device waits — the
  // resource 2PL's X locks serialize and MVCC overlaps.
  spec.num_parents = 4000;
  spec.size_unit = 5;
  spec.use_factor = 1;
  spec.overlap_factor = 1;
  // One child relation: the worst case for table-granularity X locks and
  // therefore the honest baseline for the lock-scope claim.
  spec.num_child_rels = 1;
  spec.buffer_pages = 96;
  spec.seed = 137;
  spec.enable_wal = true;
  spec.enable_mvcc = mvcc;
  spec.io_latency_us = io_latency_us;
  return spec;
}

WorkloadSpec MixSpec(double pr_update) {
  WorkloadSpec wl;
  wl.num_queries = 400;
  // OLTP shape: point-ish retrieves racing batch updates. Wide retrieves
  // would bury the protocol cost under their own object I/O; a 2-object
  // retrieve against a 16-target update keeps both sides visible.
  wl.num_top = 2;
  wl.pr_update = pr_update;
  wl.update_batch = 16;
  wl.seed = 131;
  return wl;
}

/// One arm of a sweep point on a fresh database: warm-up at a quarter of
/// the window settles pools and caches, then one measured window.
Window RunArm(bool mvcc, uint32_t threads, double pr_update,
              const BenchArgs& args, const Timing& timing) {
  std::unique_ptr<ComplexDatabase> db;
  Status s = BuildDatabase(ContentionSpec(mvcc, args.io_latency_us), &db);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  std::vector<Query> queries;
  s = GenerateWorkload(MixSpec(pr_update), *db, &queries);
  OBJREP_CHECK_MSG(s.ok(), s.ToString().c_str());
  return Measure(timing,
                 ConcurrentRunnerWindow(StrategyKind::kDfs, db.get(),
                                        &queries, threads, 17));
}

void RunSweep(const BenchArgs& args) {
  // The quick sweep stays below the floor point (8 threads, PrU 0.3):
  // CI smoke validates the harness; the committed JSON carries the claim.
  const std::vector<uint32_t> thread_counts =
      args.quick ? std::vector<uint32_t>{1, 4}
                 : std::vector<uint32_t>{1, 4, 8};
  const std::vector<double> mixes =
      args.quick ? std::vector<double>{0.0, 0.3}
                 : std::vector<double>{0.0, 0.1, 0.3, 0.5};

  const Timing timing{args.duration * 0.25, args.duration, 1};
  Envelope env = MakeEnvelope("mvcc_contention", args);
  AddTiming(&env.config, timing)
      .Str("strategy", "DFS")
      .Raw("db", SpecJson(ContentionSpec(false, args.io_latency_us)))
      .Raw("workload", WorkloadJson(MixSpec(0.0)));

  std::printf("%-8s %10s %14s %14s %10s\n", "threads", "pr_upd",
              "2pl ret/s", "mvcc ret/s", "speedup");
  for (uint32_t k : thread_counts) {
    for (double pr : mixes) {
      const Window twopl = RunArm(false, k, pr, args, timing);
      const Window mvcc = RunArm(true, k, pr, args, timing);
      std::printf("%-8u %10.2f %14.0f %14.0f %9.2fx\n", k, pr,
                  twopl.retrieves_per_sec(), mvcc.retrieves_per_sec(),
                  twopl.retrieves_per_sec() > 0
                      ? mvcc.retrieves_per_sec() / twopl.retrieves_per_sec()
                      : 0.0);
      for (const auto& [arm, w] : {std::pair{"2pl", twopl}, {"mvcc", mvcc}}) {
        JsonObject point;
        point.Int("threads", k).Num("pr_update", pr).Str("arm", arm);
        env.points.push_back(AddWindow(&point, w));
      }
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
          argc, argv, "mvcc_contention",
          objrep::bench::kQuickFlag | objrep::bench::kDurationFlag |
              objrep::bench::kIoLatencyFlag | objrep::bench::kJsonFlag,
          &args)) {
    return 2;
  }
  objrep::bench::PrintTitle(
      "MVCC vs 2PL under contention: swept threads and update mix",
      "closed-loop clients; snapshot reads vs table S/X locks");
  objrep::bench::RunSweep(args);
  return 0;
}
