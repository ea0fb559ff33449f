// Tests for the hotspot extension of the workload generator and the
// end-to-end effect of skew on the cache.
#include <gtest/gtest.h>

#include <cmath>

#include "core/runner.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objrep {
namespace {

DatabaseSpec Spec() {
  DatabaseSpec spec;
  spec.num_parents = 2000;
  spec.use_factor = 5;
  spec.build_cache = true;
  spec.size_cache = 50;
  spec.seed = 15;
  return spec;
}

TEST(WorkloadSkewTest, HotFractionConcentratesAccesses) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(Spec(), &db).ok());
  WorkloadSpec w;
  w.num_queries = 4000;
  w.num_top = 10;
  w.hot_access_prob = 0.8;
  w.hot_region_fraction = 0.1;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
  int hot = 0, total = 0;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::kRetrieve) continue;
    ++total;
    // Hot region = first 10% of the lo_parent span.
    if (q.lo_parent < (2000 - 10 + 1) / 10) ++hot;
  }
  // 80% forced-hot plus ~10% of the uniform draws landing there.
  EXPECT_NEAR(static_cast<double>(hot) / total, 0.8 + 0.2 * 0.1, 0.03);
}

TEST(WorkloadSkewTest, ZeroSkewIsUniform) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(Spec(), &db).ok());
  WorkloadSpec w;
  w.num_queries = 4000;
  w.num_top = 10;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
  int hot = 0, total = 0;
  for (const Query& q : queries) {
    if (q.kind != Query::Kind::kRetrieve) continue;
    ++total;
    if (q.lo_parent < (2000 - 10 + 1) / 10) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / total, 0.1, 0.03);
}

// Every front end generates its query stream here, so this is where a
// probability or fraction outside [0, 1] is refused: a hot fraction above
// 1 would draw ranges past |ParentRel|, and a negative one would convert a
// negative double to uint32_t.
TEST(WorkloadSkewTest, RejectsProbabilitiesOutsideUnitInterval) {
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(Spec(), &db).ok());
  std::vector<Query> queries;
  for (double WorkloadSpec::*field :
       {&WorkloadSpec::pr_update, &WorkloadSpec::hot_access_prob,
        &WorkloadSpec::hot_region_fraction}) {
    for (double bad : {-0.1, 1.5, 3.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
      WorkloadSpec w;
      w.hot_access_prob = 0.5;
      w.*field = bad;
      EXPECT_TRUE(GenerateWorkload(w, *db, &queries).IsInvalidArgument())
          << bad;
    }
    for (double edge : {0.0, 1.0}) {
      WorkloadSpec w;
      w.num_queries = 500;
      w.hot_access_prob = 0.5;
      w.*field = edge;
      ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok()) << edge;
      for (const Query& q : queries) {
        if (q.kind == Query::Kind::kRetrieve) {
          EXPECT_LE(q.lo_parent + q.num_top, 2000u);
        }
      }
    }
  }
}

TEST(WorkloadSkewTest, SkewRaisesCacheHitRate) {
  // A 50-unit cache over 400 units: uniform accesses hit ~12%; when 80%
  // of retrieves hammer 10% of the objects, the hot units fit and the
  // hit rate must rise substantially.
  double hit_rate[2];
  int i = 0;
  for (double hot_prob : {0.0, 0.8}) {
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(Spec(), &db).ok());
    WorkloadSpec w;
    w.num_queries = 400;
    w.num_top = 5;
    w.hot_access_prob = hot_prob;
    w.hot_region_fraction = 0.1;
    w.seed = 77;
    std::vector<Query> queries;
    ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
    std::unique_ptr<Strategy> s;
    ASSERT_TRUE(MakeStrategy(StrategyKind::kDfsCache, db.get(),
                             StrategyOptions{}, &s)
                    .ok());
    RunResult r;
    ASSERT_TRUE(RunWorkload(s.get(), db.get(), queries, &r).ok());
    uint64_t probes = r.cache_stats.hits + r.cache_stats.misses;
    hit_rate[i++] = static_cast<double>(r.cache_stats.hits) / probes;
  }
  EXPECT_GT(hit_rate[1], hit_rate[0] * 2);
}

}  // namespace
}  // namespace objrep
