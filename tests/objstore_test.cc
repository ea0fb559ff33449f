// Tests for the complex-object store: OIDs, database generation invariants
// (the paper's UseFactor / OverlapFactor / ShareFactor model), the cache
// manager, and workload generation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>

#include "objstore/database.h"
#include "objstore/unit_blob.h"
#include "objstore/workload.h"

namespace objrep {
namespace {

DatabaseSpec SmallSpec() {
  DatabaseSpec spec;
  spec.num_parents = 1000;
  spec.size_unit = 5;
  spec.use_factor = 5;
  spec.overlap_factor = 1;
  spec.seed = 42;
  return spec;
}

TEST(OidTest, PackRoundTrip) {
  Oid oid{7, 0xdeadbeef};
  EXPECT_EQ(Oid::FromPacked(oid.Packed()), oid);
  EXPECT_EQ(oid.Packed(), (uint64_t{7} << 32) | 0xdeadbeef);
}

TEST(OidTest, OrderingIsRelThenKey) {
  EXPECT_LT(Oid({1, 100}), Oid({2, 0}));
  EXPECT_LT(Oid({1, 1}), Oid({1, 2}));
}

TEST(OidTest, OidListRoundTrip) {
  std::vector<Oid> oids = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(DecodeOidList(EncodeOidList(oids)), oids);
  EXPECT_TRUE(DecodeOidList("").empty());
}

TEST(UnitBlobTest, RoundTrip) {
  std::vector<std::string> records = {"alpha", "", "gamma-gamma"};
  std::string blob = EncodeUnitBlob(records);
  std::vector<std::string_view> out;
  ASSERT_TRUE(DecodeUnitBlob(blob, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "alpha");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], "gamma-gamma");
  EXPECT_TRUE(DecodeUnitBlob("x", &out).IsCorruption());
}

TEST(SpecTest, DerivedQuantitiesMatchPaperEquations) {
  DatabaseSpec spec;  // the paper's defaults
  EXPECT_EQ(spec.share_factor(), 5u);
  EXPECT_EQ(spec.num_children_total(), 10000u);  // 50000 / ShareFactor
  EXPECT_EQ(spec.num_units(), 2000u);            // 10000 / UseFactor
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(SpecTest, ValidationCatchesBadDivisibility) {
  DatabaseSpec spec = SmallSpec();
  spec.use_factor = 3;  // does not divide 1000
  EXPECT_FALSE(spec.Validate().ok());
  spec = SmallSpec();
  spec.num_child_rels = 7;  // does not divide NumUnits=200
  EXPECT_FALSE(spec.Validate().ok());
  spec = SmallSpec();
  spec.size_unit = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(BuilderTest, CardinalitiesMatchEquationOne) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  // |ChildRel| = |ParentRel| * SizeUnit / ShareFactor (paper eqn. 1).
  EXPECT_EQ(db->child_rows[0].size(), 1000u * 5 / 5);
  EXPECT_EQ(db->units.size(), 200u);  // NumUnits = 1000/5
  EXPECT_EQ(db->parent_rel->tree().stats().num_entries, 1000u);
  EXPECT_EQ(db->child_rels[0]->tree().stats().num_entries, 1000u);
}

TEST(BuilderTest, EveryUnitUsedByExactlyUseFactorParents) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::map<uint32_t, int> uses;
  for (uint32_t u : db->unit_of_parent) ++uses[u];
  ASSERT_EQ(uses.size(), 200u);
  for (const auto& [u, n] : uses) EXPECT_EQ(n, 5);
}

TEST(BuilderTest, DisjointUnitsPartitionChildrenWhenOverlapIsOne) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  std::set<uint64_t> seen;
  for (const auto& unit : db->units) {
    EXPECT_EQ(unit.size(), spec.size_unit);
    for (const Oid& oid : unit) {
      EXPECT_TRUE(seen.insert(oid.Packed()).second)
          << "subobject appears in two units despite OverlapFactor=1";
    }
  }
  EXPECT_EQ(seen.size(), 1000u);  // every child in exactly one unit
}

TEST(BuilderTest, OverlapFactorControlsExpectedSharing) {
  auto spec = SmallSpec();
  spec.use_factor = 1;
  spec.overlap_factor = 5;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  // |ChildRel| = 1000*5/5 = 1000, NumUnits = 1000 of size 5.
  EXPECT_EQ(db->child_rows[0].size(), 1000u);
  EXPECT_EQ(db->units.size(), 1000u);
  std::unordered_map<uint64_t, int> memberships;
  for (const auto& unit : db->units) {
    std::set<uint64_t> in_unit;
    for (const Oid& oid : unit) {
      EXPECT_TRUE(in_unit.insert(oid.Packed()).second)
          << "unit contains a duplicate subobject";
      ++memberships[oid.Packed()];
    }
  }
  double total = 0;
  for (const auto& [oid, n] : memberships) total += n;
  // E[units per subobject] == OverlapFactor; sampled mean close to 5.
  EXPECT_NEAR(total / 1000.0, 5.0, 0.5);
}

TEST(BuilderTest, ParentRowsReferenceTheirAssignedUnit) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  for (uint32_t p = 0; p < 1000; p += 83) {
    std::vector<Value> row;
    ASSERT_TRUE(db->parent_rel->Get(p, &row).ok());
    std::vector<Oid> children =
        DecodeOidList(row[kParentChildren].as_string());
    EXPECT_EQ(children, db->units[db->unit_of_parent[p]]);
  }
}

TEST(BuilderTest, TupleWidthsApproximatePaperTargets) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  // ~10 parent tuples and ~18 child tuples per 2 KB page.
  uint32_t parent_leaves = db->parent_rel->tree().stats().leaf_pages;
  uint32_t child_leaves = db->child_rels[0]->tree().stats().leaf_pages;
  double parents_per_page = 1000.0 / parent_leaves;
  double children_per_page = 1000.0 / child_leaves;
  EXPECT_NEAR(parents_per_page, kPageSize / 200.0, 2.5);
  EXPECT_NEAR(children_per_page, kPageSize / 100.0, 4.0);
}

TEST(BuilderTest, DeterministicForSameSeed) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> a, b;
  ASSERT_TRUE(BuildDatabase(spec, &a).ok());
  ASSERT_TRUE(BuildDatabase(spec, &b).ok());
  EXPECT_EQ(a->unit_of_parent, b->unit_of_parent);
  EXPECT_EQ(a->units, b->units);
  spec.seed = 43;
  std::unique_ptr<ComplexDatabase> c;
  ASSERT_TRUE(BuildDatabase(spec, &c).ok());
  EXPECT_NE(a->unit_of_parent, c->unit_of_parent);
}

TEST(BuilderTest, ClusterRelContainsEveryParentAndChildOnce) {
  auto spec = SmallSpec();
  spec.build_cluster = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  ASSERT_NE(db->cluster_rel, nullptr);
  uint32_t parents = 0, children = 0;
  auto it = db->cluster_rel->tree().NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  std::set<uint64_t> child_oids;
  while (it.valid()) {
    if (ClusterSeqOf(it.key()) == 0 && ClusterNoOf(it.key()) < 1000) {
      ++parents;
    } else {
      Value oid;
      ASSERT_TRUE(DecodeField(db->cluster_rel->schema(), it.value(),
                              kClusterOid, &oid)
                      .ok());
      EXPECT_TRUE(
          child_oids.insert(static_cast<uint64_t>(oid.as_int64())).second);
      ++children;
    }
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(parents, 1000u);
  EXPECT_EQ(children, 1000u);  // every child clustered exactly once
}

TEST(BuilderTest, ClusterIsamResolvesEveryChild) {
  auto spec = SmallSpec();
  spec.build_cluster = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  for (uint32_t k = 0; k < 1000; k += 37) {
    Oid oid{db->child_rels[0]->rel_id(), k};
    uint64_t cluster_key;
    ASSERT_TRUE(db->cluster_oid_index.Lookup(oid.Packed(), &cluster_key).ok());
    std::vector<Value> row;
    ASSERT_TRUE(db->cluster_rel->Get(cluster_key, &row).ok());
    EXPECT_EQ(static_cast<uint64_t>(row[kClusterOid].as_int64()),
              oid.Packed());
  }
}

TEST(BuilderTest, ClusterOwnerIsAlwaysAUser) {
  auto spec = SmallSpec();
  spec.build_cluster = true;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  ASSERT_EQ(db->unit_owner.size(), db->units.size());
  for (uint32_t u = 0; u < db->units.size(); ++u) {
    EXPECT_EQ(db->unit_of_parent[db->unit_owner[u]], u);
  }
}

TEST(BuilderTest, MultipleChildRelations) {
  auto spec = SmallSpec();
  spec.num_child_rels = 4;
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  ASSERT_EQ(db->child_rels.size(), 4u);
  // Each unit's members live in one relation.
  for (const auto& unit : db->units) {
    for (const Oid& oid : unit) {
      EXPECT_EQ(oid.rel, unit[0].rel);
    }
  }
  // Units are spread over all four relations.
  std::set<uint32_t> rels;
  for (const auto& unit : db->units) rels.insert(unit[0].rel);
  EXPECT_EQ(rels.size(), 4u);
}

// --- CacheManager ---

class CacheManagerTest : public ::testing::Test {
 protected:
  CacheManagerTest()
      : pool_(&disk_, 32),
        cache_(&pool_, /*size_cache=*/3, /*buckets=*/4,
               CacheAdmission::kEvictLru) {
    EXPECT_TRUE(cache_.Init().ok());
  }
  std::vector<Oid> UnitOf(uint32_t base) {
    return {{1, base}, {1, base + 1}};
  }
  DiskManager disk_;
  BufferPool pool_;
  CacheManager cache_;
};

TEST_F(CacheManagerTest, InsertFetchRoundTrip) {
  auto unit = UnitOf(10);
  uint64_t hk = CacheManager::HashKeyOf(unit);
  EXPECT_FALSE(cache_.IsCached(hk));
  ASSERT_TRUE(cache_.InsertUnit(hk, unit, "blobdata").ok());
  EXPECT_TRUE(cache_.IsCached(hk));
  std::string blob;
  ASSERT_TRUE(cache_.FetchUnit(hk, &blob).ok());
  EXPECT_EQ(blob, "blobdata");
  EXPECT_EQ(cache_.stats().hits, 1u);
  EXPECT_EQ(cache_.stats().inserts, 1u);
}

TEST_F(CacheManagerTest, HashKeyDependsOnOidsAndOrder) {
  EXPECT_EQ(CacheManager::HashKeyOf(UnitOf(1)),
            CacheManager::HashKeyOf(UnitOf(1)));
  EXPECT_NE(CacheManager::HashKeyOf(UnitOf(1)),
            CacheManager::HashKeyOf(UnitOf(2)));
  std::vector<Oid> ab = {{1, 1}, {1, 2}};
  std::vector<Oid> ba = {{1, 2}, {1, 1}};
  EXPECT_NE(CacheManager::HashKeyOf(ab), CacheManager::HashKeyOf(ba));
}

TEST_F(CacheManagerTest, LruEvictionAtCapacity) {
  for (uint32_t i = 0; i < 3; ++i) {
    auto u = UnitOf(i * 10);
    ASSERT_TRUE(cache_.InsertUnit(CacheManager::HashKeyOf(u), u, "b").ok());
  }
  // Touch unit 0 so unit 10 becomes coldest.
  std::string blob;
  ASSERT_TRUE(
      cache_.FetchUnit(CacheManager::HashKeyOf(UnitOf(0)), &blob).ok());
  auto u3 = UnitOf(30);
  ASSERT_TRUE(cache_.InsertUnit(CacheManager::HashKeyOf(u3), u3, "b").ok());
  EXPECT_EQ(cache_.stats().evictions, 1u);
  EXPECT_TRUE(cache_.IsCached(CacheManager::HashKeyOf(UnitOf(0))));
  EXPECT_FALSE(cache_.IsCached(CacheManager::HashKeyOf(UnitOf(10))));
  EXPECT_EQ(cache_.size(), 3u);
}

TEST_F(CacheManagerTest, RejectPolicyDropsNewUnits) {
  CacheManager reject(&pool_, 1, 4, CacheAdmission::kRejectWhenFull);
  ASSERT_TRUE(reject.Init().ok());
  auto u0 = UnitOf(0), u1 = UnitOf(10);
  ASSERT_TRUE(reject.InsertUnit(CacheManager::HashKeyOf(u0), u0, "b").ok());
  ASSERT_TRUE(reject.InsertUnit(CacheManager::HashKeyOf(u1), u1, "b").ok());
  EXPECT_EQ(reject.stats().rejections, 1u);
  EXPECT_TRUE(reject.IsCached(CacheManager::HashKeyOf(u0)));
  EXPECT_FALSE(reject.IsCached(CacheManager::HashKeyOf(u1)));
}

TEST_F(CacheManagerTest, InvalidationDropsEveryLockedUnit) {
  // Two units sharing subobject (1, 5).
  std::vector<Oid> a = {{1, 4}, {1, 5}};
  std::vector<Oid> b = {{1, 5}, {1, 6}};
  std::vector<Oid> c = {{1, 7}, {1, 8}};
  for (const auto& u : {a, b, c}) {
    ASSERT_TRUE(cache_.InsertUnit(CacheManager::HashKeyOf(u), u, "b").ok());
  }
  ASSERT_TRUE(cache_.InvalidateSubobject(Oid{1, 5}).ok());
  EXPECT_EQ(cache_.stats().invalidated_units, 2u);
  EXPECT_FALSE(cache_.IsCached(CacheManager::HashKeyOf(a)));
  EXPECT_FALSE(cache_.IsCached(CacheManager::HashKeyOf(b)));
  EXPECT_TRUE(cache_.IsCached(CacheManager::HashKeyOf(c)));
  // Untouched subobject: no-op.
  ASSERT_TRUE(cache_.InvalidateSubobject(Oid{1, 99}).ok());
  EXPECT_EQ(cache_.stats().invalidated_units, 2u);
}

TEST_F(CacheManagerTest, ReinsertAfterInvalidationWorks) {
  auto u = UnitOf(50);
  uint64_t hk = CacheManager::HashKeyOf(u);
  ASSERT_TRUE(cache_.InsertUnit(hk, u, "v1").ok());
  ASSERT_TRUE(cache_.InvalidateSubobject(u[0]).ok());
  EXPECT_FALSE(cache_.IsCached(hk));
  ASSERT_TRUE(cache_.InsertUnit(hk, u, "v2").ok());
  std::string blob;
  ASSERT_TRUE(cache_.FetchUnit(hk, &blob).ok());
  EXPECT_EQ(blob, "v2");
}

TEST_F(CacheManagerTest, DuplicateInsertIsSharedNoop) {
  auto u = UnitOf(60);
  uint64_t hk = CacheManager::HashKeyOf(u);
  ASSERT_TRUE(cache_.InsertUnit(hk, u, "v").ok());
  ASSERT_TRUE(cache_.InsertUnit(hk, u, "v").ok());
  EXPECT_EQ(cache_.stats().inserts, 1u);
  EXPECT_EQ(cache_.size(), 1u);
}

// --- Workload ---

TEST(WorkloadTest, MixMatchesPrUpdate) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec w;
  w.num_queries = 2000;
  w.pr_update = 0.4;
  w.num_top = 10;
  std::vector<Query> queries;
  ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
  ASSERT_EQ(queries.size(), 2000u);
  int updates = 0;
  for (const Query& q : queries) {
    if (q.kind == Query::Kind::kUpdate) {
      ++updates;
      EXPECT_EQ(q.update_targets.size(), 5u);
      for (const Oid& t : q.update_targets) {
        EXPECT_LT(t.key, 1000u);
      }
    } else {
      EXPECT_EQ(q.num_top, 10u);
      EXPECT_LE(q.lo_parent + q.num_top, 1000u);
      EXPECT_GE(q.attr_index, 0);
      EXPECT_LE(q.attr_index, 2);
    }
  }
  EXPECT_NEAR(updates / 2000.0, 0.4, 0.03);
}

TEST(WorkloadTest, NumTopBoundsValidated) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec w;
  w.num_top = 1001;
  std::vector<Query> queries;
  EXPECT_TRUE(GenerateWorkload(w, *db, &queries).IsInvalidArgument());
  w.num_top = 1000;  // full-relation retrieves are legal
  ASSERT_TRUE(GenerateWorkload(w, *db, &queries).ok());
  for (const Query& q : queries) {
    if (q.kind == Query::Kind::kRetrieve) {
      EXPECT_EQ(q.lo_parent, 0u);
    }
  }
}

TEST(WorkloadTest, DeterministicInSeed) {
  auto spec = SmallSpec();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  WorkloadSpec w;
  w.num_queries = 50;
  w.pr_update = 0.5;
  w.num_top = 3;
  std::vector<Query> a, b;
  ASSERT_TRUE(GenerateWorkload(w, *db, &a).ok());
  ASSERT_TRUE(GenerateWorkload(w, *db, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].lo_parent, b[i].lo_parent);
    EXPECT_EQ(a[i].update_targets, b[i].update_targets);
  }
}

}  // namespace
}  // namespace objrep
