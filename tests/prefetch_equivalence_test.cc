// Prefetch exactness net (DESIGN.md §9): with a zero-latency device, the
// read-ahead pipeline must be *bit-identical* to plain demand paging for
// every strategy — same reads, writes, hits, misses, and results, query by
// query. Read-ahead may only move read timing earlier, never change what
// is read or which frames are evicted. Any hint that stages a page the
// run never consumes, or that perturbs LRU recency, trips this test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/runner.h"
#include "core/strategy.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objrep {
namespace {

DatabaseSpec BaseSpec() {
  DatabaseSpec spec;
  spec.num_parents = 2000;
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.build_join_index = true;
  spec.seed = 77;
  return spec;
}

WorkloadSpec BaseWorkload() {
  WorkloadSpec wl;
  wl.num_queries = 50;
  wl.num_top = 25;
  wl.pr_update = 0.2;
  wl.seed = 78;
  return wl;
}

struct Observed {
  RunResult run;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetched = 0;
  std::vector<PageId> leftover_staged;
};

void RunOnce(StrategyKind kind, bool prefetch, Observed* out) {
  DatabaseSpec spec = BaseSpec();
  spec.prefetch = prefetch;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(BaseWorkload(), *db, &queries).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(MakeStrategy(kind, db.get(), StrategyOptions{}, &strategy).ok());
  ASSERT_TRUE(RunWorkload(strategy.get(), db.get(), queries, &out->run).ok());
  out->hits = db->pool->hits();
  out->misses = db->pool->misses();
  out->prefetched = db->pool->prefetched_pages();
  out->leftover_staged = db->pool->StagedPageIds();
}

class PrefetchEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PrefetchEquivalenceTest, IoCountsBitIdenticalToDemandPaging) {
  Observed off, on;
  RunOnce(GetParam(), /*prefetch=*/false, &off);
  RunOnce(GetParam(), /*prefetch=*/true, &on);

  EXPECT_EQ(off.run.total_io, on.run.total_io);
  EXPECT_EQ(off.run.retrieve_io, on.run.retrieve_io);
  EXPECT_EQ(off.run.update_io, on.run.update_io);
  EXPECT_EQ(off.run.flush_io, on.run.flush_io);
  EXPECT_EQ(off.run.io.reads, on.run.io.reads);
  EXPECT_EQ(off.run.io.writes, on.run.io.writes);
  EXPECT_EQ(off.hits, on.hits);
  EXPECT_EQ(off.misses, on.misses);
  EXPECT_EQ(off.run.result_count, on.run.result_count);
  EXPECT_EQ(off.run.result_sum, on.run.result_sum);

  // The demand-paged run of course prefetches nothing...
  EXPECT_EQ(off.prefetched, 0u);
  // ...and every staged page must have been consumed by the run: a
  // leftover means some hint staged a page the execution never demanded
  // (an exactness violation even if the totals happen to match).
  EXPECT_TRUE(on.leftover_staged.empty())
      << on.leftover_staged.size() << " staged pages never consumed";
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PrefetchEquivalenceTest,
    ::testing::Values(StrategyKind::kDfs, StrategyKind::kBfs,
                      StrategyKind::kBfsNoDup, StrategyKind::kDfsCache,
                      StrategyKind::kDfsClust, StrategyKind::kSmart,
                      StrategyKind::kDfsClustCache,
                      StrategyKind::kBfsJoinIndex, StrategyKind::kBfsHash,
                      StrategyKind::kAdaptive),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      switch (info.param) {
        case StrategyKind::kDfs: return "Dfs";
        case StrategyKind::kBfs: return "Bfs";
        case StrategyKind::kBfsNoDup: return "BfsNoDup";
        case StrategyKind::kDfsCache: return "DfsCache";
        case StrategyKind::kDfsClust: return "DfsClust";
        case StrategyKind::kSmart: return "Smart";
        case StrategyKind::kDfsClustCache: return "DfsClustCache";
        case StrategyKind::kBfsJoinIndex: return "BfsJoinIndex";
        case StrategyKind::kBfsHash: return "BfsHash";
        case StrategyKind::kAdaptive: return "Adaptive";
      }
      return "Unknown";
    });

// Temp-page reclamation (spec.reclaim_temp_pages): a long BFS sequence's
// on-disk footprint must stay bounded when temp relations return their
// pages to the free list, and reclamation must not change results.
TEST(TempReclaimTest, BfsFootprintBoundedAndResultsUnchanged) {
  uint64_t grown_pages[2];
  RunResult results[2];
  for (int reclaim = 0; reclaim < 2; ++reclaim) {
    DatabaseSpec spec = BaseSpec();
    spec.reclaim_temp_pages = reclaim == 1;
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    WorkloadSpec wl = BaseWorkload();
    wl.num_queries = 120;
    wl.pr_update = 0.0;  // retrieves only: all growth is temp pages
    std::vector<Query> queries;
    ASSERT_TRUE(GenerateWorkload(wl, *db, &queries).ok());
    std::unique_ptr<Strategy> strategy;
    ASSERT_TRUE(MakeStrategy(StrategyKind::kBfs, db.get(), StrategyOptions{},
                             &strategy)
                    .ok());
    const uint64_t before = db->disk->num_pages() - db->disk->num_free_pages();
    ASSERT_TRUE(
        RunWorkload(strategy.get(), db.get(), queries, &results[reclaim])
            .ok());
    const uint64_t after = db->disk->num_pages() - db->disk->num_free_pages();
    grown_pages[reclaim] = after - before;
  }
  EXPECT_EQ(results[0].result_count, results[1].result_count);
  EXPECT_EQ(results[0].result_sum, results[1].result_sum);
  // Without reclamation every query leaks its temp pages; with it, live
  // growth is at most one query's working set, not 120 of them.
  EXPECT_GT(grown_pages[0], grown_pages[1] * 10)
      << "no-reclaim grew " << grown_pages[0] << ", reclaim grew "
      << grown_pages[1];
}

}  // namespace
}  // namespace objrep
