// Stress tests for the concurrent execution engine: for every strategy
// kind, a read-only stream executed by 8 worker sessions must be
// result-identical (count and sum of projected values) to the 1-thread
// and to the sequential runs; with updates racing retrieves, the
// *structural* result_count stays invariant (updates modify values in
// place, never the set of subobjects). Run under TSan in CI.
#include "exec/concurrent_runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/runner.h"
#include "objstore/database.h"

namespace objrep {
namespace {

DatabaseSpec EngineSpec() {
  DatabaseSpec spec;
  spec.num_parents = 600;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.overlap_factor = 1;
  spec.num_child_rels = 2;
  // Room for 8 concurrent sessions (BFS sorts pin work_mem pages each).
  spec.buffer_pages = 256;
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.size_cache = 60;
  spec.cache_buckets = 64;
  spec.seed = 11;
  return spec;
}

WorkloadSpec ReadOnlyWorkload() {
  WorkloadSpec wl;
  wl.num_queries = 60;
  wl.num_top = 12;
  wl.pr_update = 0.0;
  wl.seed = 23;
  return wl;
}

const std::vector<StrategyKind>& AllKinds() {
  static const std::vector<StrategyKind> kinds = {
      StrategyKind::kDfs,          StrategyKind::kBfs,
      StrategyKind::kBfsNoDup,     StrategyKind::kDfsCache,
      StrategyKind::kDfsClust,     StrategyKind::kSmart,
      StrategyKind::kDfsClustCache, StrategyKind::kBfsJoinIndex,
      StrategyKind::kBfsHash};
  return kinds;
}

struct Fixture {
  std::unique_ptr<ComplexDatabase> db;
  std::vector<Query> queries;
};

/// Fresh database + deterministic stream: every run starts from identical
/// contents, with no inherited buffer or cache state.
Fixture MakeFixture(const WorkloadSpec& wl) {
  Fixture f;
  Status s = BuildDatabase(EngineSpec(), &f.db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  s = GenerateWorkload(wl, *f.db, &f.queries);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return f;
}

TEST(ConcurrentRunnerTest, EightThreadsResultIdenticalToOneThread) {
  for (StrategyKind kind : AllKinds()) {
    SCOPED_TRACE(StrategyKindName(kind));

    // Sequential baseline.
    Fixture seq = MakeFixture(ReadOnlyWorkload());
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(MakeStrategy(kind, seq.db.get(), {}, &strategy).ok());
    RunResult base;
    ASSERT_TRUE(
        RunWorkload(strategy.get(), seq.db.get(), seq.queries, &base).ok());
    ASSERT_GT(base.result_count, 0u);

    for (uint32_t threads : {1u, 8u}) {
      Fixture f = MakeFixture(ReadOnlyWorkload());
      ConcurrentRunOptions opts;
      opts.num_threads = threads;
      ConcurrentRunResult r;
      Status s = RunConcurrentWorkload(kind, {}, f.db.get(), f.queries, opts,
                                       &r);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(r.combined.num_queries, f.queries.size());
      EXPECT_EQ(r.combined.result_count, base.result_count)
          << threads << " threads";
      EXPECT_EQ(r.combined.result_sum, base.result_sum)
          << threads << " threads";
      EXPECT_EQ(r.latency.count, r.combined.num_queries);
      EXPECT_GT(r.queries_per_sec, 0.0);
    }
  }
}

TEST(ConcurrentRunnerTest, UpdatesRacingRetrievesKeepStructure) {
  WorkloadSpec wl = ReadOnlyWorkload();
  wl.num_queries = 120;
  wl.pr_update = 0.3;
  wl.update_batch = 4;

  for (StrategyKind kind : AllKinds()) {
    SCOPED_TRACE(StrategyKindName(kind));

    Fixture seq = MakeFixture(wl);
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(MakeStrategy(kind, seq.db.get(), {}, &strategy).ok());
    RunResult base;
    ASSERT_TRUE(
        RunWorkload(strategy.get(), seq.db.get(), seq.queries, &base).ok());
    ASSERT_GT(base.num_updates, 0u);

    Fixture f = MakeFixture(wl);
    ConcurrentRunOptions opts;
    opts.num_threads = 8;
    ConcurrentRunResult r;
    Status s =
        RunConcurrentWorkload(kind, {}, f.db.get(), f.queries, opts, &r);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(r.combined.num_queries, f.queries.size());
    EXPECT_EQ(r.combined.num_updates, base.num_updates);
    // Updates change values in place, never which subobjects a retrieve
    // returns — result_count is interleaving-invariant; result_sum is not.
    EXPECT_EQ(r.combined.result_count, base.result_count);
  }
}

TEST(ConcurrentRunnerTest, CacheInvalidationSurvivesConcurrency) {
  // DFSCACHE under a racing update mix: the run must complete with the
  // cache directory consistent (every probe either hit a valid unit or
  // re-materialized it; the engine asserts internally via OBJREP_CHECK).
  WorkloadSpec wl = ReadOnlyWorkload();
  wl.num_queries = 150;
  wl.pr_update = 0.4;
  Fixture f = MakeFixture(wl);
  ConcurrentRunOptions opts;
  opts.num_threads = 8;
  ConcurrentRunResult r;
  Status s = RunConcurrentWorkload(StrategyKind::kDfsCache, {}, f.db.get(),
                                   f.queries, opts, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(r.combined.cache_stats.inserts, 0u);
  EXPECT_GT(r.combined.cache_stats.invalidated_units, 0u);
  EXPECT_LE(f.db->cache->size(), f.db->cache->capacity());
}

TEST(ConcurrentRunnerTest, DurationModeRunsUntilDeadline) {
  Fixture f = MakeFixture(ReadOnlyWorkload());
  ConcurrentRunOptions opts;
  opts.num_threads = 4;
  opts.duration_seconds = 0.05;
  opts.seed = 99;
  ConcurrentRunResult r;
  Status s = RunConcurrentWorkload(StrategyKind::kDfs, {}, f.db.get(),
                                   f.queries, opts, &r);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(r.combined.num_queries, 0u);
  EXPECT_GE(r.wall_seconds, 0.05);
  EXPECT_EQ(r.latency.count, r.combined.num_queries);
}

TEST(ConcurrentRunnerTest, AggregateIoMatchesSequentialOnOneThread) {
  // With one worker and a read-only stream, the engine's aggregate I/O
  // bill equals the sequential runner's (same fetches, same final flush).
  Fixture seq = MakeFixture(ReadOnlyWorkload());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfs, seq.db.get(), {}, &strategy).ok());
  RunResult base;
  ASSERT_TRUE(
      RunWorkload(strategy.get(), seq.db.get(), seq.queries, &base).ok());

  Fixture f = MakeFixture(ReadOnlyWorkload());
  ConcurrentRunOptions opts;
  opts.num_threads = 1;
  ConcurrentRunResult r;
  ASSERT_TRUE(RunConcurrentWorkload(StrategyKind::kDfs, {}, f.db.get(),
                                    f.queries, opts, &r)
                  .ok());
  EXPECT_EQ(r.combined.total_io, base.total_io);
}

TEST(ConcurrentRunnerTest, PercentilesAreNearestRank) {
  // Ten samples: nearest rank takes the ceil(p*n)-th smallest, so p99 and
  // p999 are the maximum. The floor(p*(n-1)) index rule would answer 9.
  std::vector<double> samples = {10, 3, 7, 1, 9, 5, 2, 8, 6, 4};
  LatencySummary s = SummarizeLatencies(&samples);
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.p50_us, 5);
  EXPECT_DOUBLE_EQ(s.p95_us, 10);
  EXPECT_DOUBLE_EQ(s.p99_us, 10);
  EXPECT_DOUBLE_EQ(s.p999_us, 10);
  EXPECT_DOUBLE_EQ(s.max_us, 10);
  EXPECT_DOUBLE_EQ(s.mean_us, 5.5);
}

}  // namespace
}  // namespace objrep
