// Integration tests across the query-processing strategies: every strategy
// must return the same multiset of attribute values for the same retrieve
// (BFSNODUP returns the distinct set), updates must be visible through
// every representation, and the cache must behave per the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/runner.h"
#include "core/strategy.h"
#include "objstore/database.h"
#include "objstore/workload.h"

namespace objrep {
namespace {

DatabaseSpec FullSpec(uint32_t overlap = 1, uint32_t use = 5) {
  DatabaseSpec spec;
  spec.num_parents = 1000;
  spec.size_unit = 5;
  spec.use_factor = use;
  spec.overlap_factor = overlap;
  spec.build_cache = true;
  spec.build_cluster = true;
  spec.size_cache = 100;
  spec.cache_buckets = 64;
  spec.seed = 7;
  return spec;
}

Query Retrieve(uint32_t lo, uint32_t n, int attr = 0) {
  Query q;
  q.kind = Query::Kind::kRetrieve;
  q.lo_parent = lo;
  q.num_top = n;
  q.attr_index = attr;
  return q;
}

/// Expected multiset of values straight from the generation ground truth.
std::multiset<int32_t> ExpectedValues(const ComplexDatabase& db,
                                      const Query& q) {
  std::multiset<int32_t> out;
  for (uint32_t p = q.lo_parent; p < q.lo_parent + q.num_top; ++p) {
    for (const Oid& oid : db.units[db.unit_of_parent[p]]) {
      for (size_t r = 0; r < db.child_rels.size(); ++r) {
        if (db.child_rels[r]->rel_id() != oid.rel) continue;
        const ChildRow& row = db.child_rows[r][oid.key];
        int32_t v = q.attr_index == 0   ? row.ret1
                    : q.attr_index == 1 ? row.ret2
                                        : row.ret3;
        out.insert(v);
      }
    }
  }
  return out;
}

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyEquivalenceTest, MatchesGroundTruthOnVariedRetrieves) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(GetParam(), db.get(), StrategyOptions{}, &strategy).ok());

  for (const Query& q : {Retrieve(0, 1), Retrieve(17, 10, 1),
                         Retrieve(500, 100, 2), Retrieve(990, 10),
                         Retrieve(0, 1000, 1)}) {
    RetrieveResult result;
    ASSERT_TRUE(strategy->ExecuteRetrieve(q, &result).ok());
    std::multiset<int32_t> got(result.values.begin(), result.values.end());
    std::multiset<int32_t> expect = ExpectedValues(*db, q);
    if (GetParam() == StrategyKind::kBfsNoDup) {
      // Duplicate elimination: compare as sets.
      std::set<int32_t> gs(got.begin(), got.end());
      std::set<int32_t> es(expect.begin(), expect.end());
      EXPECT_EQ(gs, es) << "NumTop=" << q.num_top;
      // And never more values than the multiset.
      EXPECT_LE(got.size(), expect.size());
    } else {
      EXPECT_EQ(got, expect) << "NumTop=" << q.num_top;
    }
  }
}

TEST_P(StrategyEquivalenceTest, MatchesGroundTruthUnderOverlap) {
  auto spec = FullSpec(/*overlap=*/5, /*use=*/1);
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(GetParam(), db.get(), StrategyOptions{}, &strategy).ok());
  for (const Query& q : {Retrieve(3, 20), Retrieve(700, 250, 2)}) {
    RetrieveResult result;
    ASSERT_TRUE(strategy->ExecuteRetrieve(q, &result).ok());
    std::multiset<int32_t> got(result.values.begin(), result.values.end());
    std::multiset<int32_t> expect = ExpectedValues(*db, q);
    if (GetParam() == StrategyKind::kBfsNoDup) {
      std::set<int32_t> gs(got.begin(), got.end());
      std::set<int32_t> es(expect.begin(), expect.end());
      EXPECT_EQ(gs, es);
    } else {
      EXPECT_EQ(got, expect);
    }
  }
}

TEST_P(StrategyEquivalenceTest, UpdatesVisibleThroughRetrieves) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> strategy;
  ASSERT_TRUE(
      MakeStrategy(GetParam(), db.get(), StrategyOptions{}, &strategy).ok());

  // Retrieve parent 5's subobjects, update one of them, retrieve again.
  Query q = Retrieve(5, 1, 0);
  RetrieveResult before;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &before).ok());

  Oid target = db->units[db->unit_of_parent[5]][2];
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.update_targets = {target};
  upd.new_ret1 = -777;
  ASSERT_TRUE(strategy->ExecuteUpdate(upd).ok());

  RetrieveResult after;
  ASSERT_TRUE(strategy->ExecuteRetrieve(q, &after).ok());
  EXPECT_NE(before.values, after.values);
  EXPECT_NE(std::find(after.values.begin(), after.values.end(), -777),
            after.values.end());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Values(StrategyKind::kDfs, StrategyKind::kBfs,
                      StrategyKind::kBfsNoDup, StrategyKind::kDfsCache,
                      StrategyKind::kDfsClust, StrategyKind::kSmart,
                      StrategyKind::kDfsClustCache),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = StrategyKindName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(StrategyFactoryTest, RequiresMatchingStructures) {
  DatabaseSpec spec;
  spec.num_parents = 100;
  spec.use_factor = 1;
  spec.size_unit = 5;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> s;
  EXPECT_TRUE(MakeStrategy(StrategyKind::kDfsCache, db.get(),
                           StrategyOptions{}, &s)
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeStrategy(StrategyKind::kDfsClust, db.get(),
                           StrategyOptions{}, &s)
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeStrategy(StrategyKind::kSmart, db.get(), StrategyOptions{},
                           &s)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      MakeStrategy(StrategyKind::kDfs, db.get(), StrategyOptions{}, &s).ok());
}

// WithStructuresFor is the one strategy -> structures rule behind the
// config parser, the driver's --strategy and the benches: a default spec
// it provisions must satisfy MakeStrategy for the kind asked for.
TEST(StrategyFactoryTest, ProvisionedSpecSatisfiesEveryKind) {
  for (StrategyKind kind :
       {StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kBfsNoDup,
        StrategyKind::kDfsCache, StrategyKind::kDfsClust,
        StrategyKind::kSmart, StrategyKind::kDfsClustCache,
        StrategyKind::kBfsJoinIndex, StrategyKind::kBfsHash}) {
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(
        BuildDatabase(WithStructuresFor(DatabaseSpec{}, {kind}), &db).ok());
    std::unique_ptr<Strategy> s;
    EXPECT_TRUE(MakeStrategy(kind, db.get(), StrategyOptions{}, &s).ok())
        << StrategyKindName(kind);
  }
}

TEST(DfsCacheTest, SecondRetrieveHitsCache) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> s;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfsCache, db.get(), StrategyOptions{}, &s)
          .ok());
  Query q = Retrieve(10, 5);
  RetrieveResult r1, r2;
  ASSERT_TRUE(s->ExecuteRetrieve(q, &r1).ok());
  EXPECT_EQ(db->cache->stats().hits, 0u);
  EXPECT_EQ(db->cache->stats().inserts, 5u);
  ASSERT_TRUE(s->ExecuteRetrieve(q, &r2).ok());
  EXPECT_EQ(db->cache->stats().hits, 5u);
  EXPECT_EQ(r1.values, r2.values);
  // The cached pass does no ChildRel I/O at all (the Cache relation pages
  // may be buffer-resident, so cache_io can legitimately be zero here).
  EXPECT_EQ(r2.cost.child_io, 0u);
  EXPECT_LE(r2.cost.total(), r1.cost.total());
}

TEST(DfsCacheTest, UpdateInvalidatesAffectedUnitOnly) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> s;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kDfsCache, db.get(), StrategyOptions{}, &s)
          .ok());
  Query q = Retrieve(10, 5);
  RetrieveResult r;
  ASSERT_TRUE(s->ExecuteRetrieve(q, &r).ok());
  uint32_t cached_before = db->cache->size();
  // Update a subobject of parent 10's unit.
  Query upd;
  upd.kind = Query::Kind::kUpdate;
  upd.update_targets = {db->units[db->unit_of_parent[10]][0]};
  upd.new_ret1 = 1;
  ASSERT_TRUE(s->ExecuteUpdate(upd).ok());
  EXPECT_EQ(db->cache->stats().invalidated_units, 1u);
  EXPECT_EQ(db->cache->size(), cached_before - 1);
}

TEST(SmartTest, HighNumTopLeavesCacheInvariant) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  StrategyOptions opts;
  opts.smart_threshold = 50;
  std::unique_ptr<Strategy> s;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kSmart, db.get(), opts, &s).ok());
  // Below the threshold: maintains the cache.
  RetrieveResult r;
  ASSERT_TRUE(s->ExecuteRetrieve(Retrieve(0, 10), &r).ok());
  uint32_t cached = db->cache->size();
  EXPECT_GT(cached, 0u);
  // Above the threshold: "the status of the cache remains invariant".
  ASSERT_TRUE(s->ExecuteRetrieve(Retrieve(0, 500), &r).ok());
  EXPECT_EQ(db->cache->size(), cached);
  EXPECT_EQ(db->cache->stats().inserts, 10u);  // only from the first query
}

TEST(RunnerTest, AccountsQueriesAndChecksums) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec w;
  w.num_queries = 60;
  w.pr_update = 0.3;
  w.num_top = 8;
  w.seed = 3;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
  std::unique_ptr<Strategy> s;
  ASSERT_TRUE(
      MakeStrategy(StrategyKind::kBfs, db.get(), StrategyOptions{}, &s).ok());
  RunResult result;
  ASSERT_TRUE(RunWorkload(s.get(), db.get(), queries, &result).ok());
  EXPECT_EQ(result.num_queries, 60u);
  EXPECT_EQ(result.num_retrieves + result.num_updates, 60u);
  EXPECT_GT(result.num_updates, 5u);
  EXPECT_EQ(result.result_count, uint64_t{result.num_retrieves} * 8 * 5);
  EXPECT_GT(result.total_io, 0u);
  EXPECT_EQ(result.total_io,
            result.retrieve_io + result.update_io + result.flush_io);
  EXPECT_GT(result.AvgIoPerQuery(), 0.0);
}

TEST(RunnerTest, SameSeedSameIoCount) {
  // The whole simulation is deterministic: build + workload + run twice
  // must give identical I/O numbers.
  RunResult results[2];
  for (int i = 0; i < 2; ++i) {
    auto spec = FullSpec();
    std::unique_ptr<ComplexDatabase> db;
    ASSERT_TRUE(BuildDatabase(spec, &db).ok());
    WorkloadSpec w;
    w.num_queries = 40;
    w.pr_update = 0.25;
    w.num_top = 20;
    std::vector<Query> queries;
    ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
    std::unique_ptr<Strategy> s;
    ASSERT_TRUE(MakeStrategy(StrategyKind::kDfsCache, db.get(),
                             StrategyOptions{}, &s)
                    .ok());
    ASSERT_TRUE(RunWorkload(s.get(), db.get(), queries, &results[i]).ok());
  }
  EXPECT_EQ(results[0].total_io, results[1].total_io);
  EXPECT_EQ(results[0].result_sum, results[1].result_sum);
}

// Regression: DFSCACHE and SMART cache child-relation records while
// DFSCLUST+CACHE caches ClusterRel records — in the one shared Cache
// relation. Before the blob format salted the hashkey
// (CacheManager::BlobFormat), whichever family ran second fetched the
// other's blobs, decoded them with the wrong schema, and returned
// garbage values with no error. Interleave the two families on the same
// hot range, in both orders, and hold every pass to ground truth.
TEST(SharedCacheTest, CacheAndClustCacheStrategiesDoNotPoisonEachOther) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::unique_ptr<Strategy> cached_dfs;
  std::unique_ptr<Strategy> clust_cache;
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfsCache, db.get(),
                           StrategyOptions{}, &cached_dfs)
                  .ok());
  ASSERT_TRUE(MakeStrategy(StrategyKind::kDfsClustCache, db.get(),
                           StrategyOptions{}, &clust_cache)
                  .ok());
  const Query q = Retrieve(10, 30);
  const std::multiset<int32_t> expect = ExpectedValues(*db, q);
  for (Strategy* first : {cached_dfs.get(), clust_cache.get()}) {
    Strategy* second =
        first == cached_dfs.get() ? clust_cache.get() : cached_dfs.get();
    // first populates the cache, second reads the same units through its
    // own format, then first again hits whatever second installed.
    for (Strategy* s : {first, second, first}) {
      RetrieveResult r;
      ASSERT_TRUE(s->ExecuteRetrieve(q, &r).ok());
      EXPECT_EQ(std::multiset<int32_t>(r.values.begin(), r.values.end()),
                expect);
    }
  }
}

TEST(CostBreakdownTest, ComponentsSumToTotal) {
  auto spec = FullSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  for (StrategyKind kind :
       {StrategyKind::kDfs, StrategyKind::kBfs, StrategyKind::kDfsCache,
        StrategyKind::kDfsClust}) {
    std::unique_ptr<Strategy> s;
    ASSERT_TRUE(MakeStrategy(kind, db.get(), StrategyOptions{}, &s).ok());
    IoCounters before = db->disk->counters();
    RetrieveResult r;
    ASSERT_TRUE(s->ExecuteRetrieve(Retrieve(100, 50), &r).ok());
    uint64_t total = (db->disk->counters() - before).total();
    EXPECT_EQ(r.cost.total(), total) << StrategyKindName(kind);
  }
}

}  // namespace
}  // namespace objrep
