// What the sharded build produces and what it costs (DESIGN.md §14).
//
// The shard loader carves each shard straight from the generated rows.
// For three specs this test pins every shard volume, and the single-engine
// volume beside it, to a page count and a Checksum64 fold over its pages.
// The constants come from the build that still loaded and read back the
// whole single-engine volume before it carved the shards, so they move only
// when the on-disk layout does. The test then decodes every local ParentRel
// row and every replicated ChildRel row against the generator's ground
// truth. It also pins the buffer pool each build leaves behind: which pages
// are resident and in what LRU order, since the first queries' I/O counts
// start from that state. The pool constants come from the row-by-row
// loader that materialised every row before its bulk load. Two last tests
// check that the shard count stays within the holder mask and that
// building sleeps on no simulated device.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "objstore/database.h"
#include "obs/metrics.h"
#include "shard/sharded_db.h"
#include "util/hash.h"

namespace objrep {
namespace {

/// Page count and content fingerprint of one volume; for a pool, the
/// resident page count and a fingerprint of their ids in eviction order.
struct VolumePin {
  uint64_t pages = 0;
  uint64_t fold = 0;
};

bool operator==(const VolumePin& a, const VolumePin& b) {
  return a.pages == b.pages && a.fold == b.fold;
}

std::ostream& operator<<(std::ostream& os, const VolumePin& pin) {
  return os << "{" << pin.pages << ", 0x" << std::hex << pin.fold
            << std::dec << "}";
}

/// Checksum64 over the per-page Checksum64s of every page, in page order.
VolumePin PinOf(const DiskManager& disk) {
  VolumePin pin;
  pin.pages = disk.num_pages();
  std::vector<uint64_t> sums;
  sums.reserve(pin.pages);
  Page page;
  for (PageId pid = 0; pid < pin.pages; ++pid) {
    EXPECT_TRUE(disk.ReadPageRaw(pid, &page).ok());
    sums.push_back(Checksum64(page.data, kPageSize));
  }
  pin.fold = Checksum64(sums.data(), sums.size() * sizeof(uint64_t));
  return pin;
}

/// The resident pages of `db`'s pool, least recently used first. Probes
/// with TryFetchResident (no hit, no restamp), then fetches the volume's
/// other pages one by one and records the order in which the resident ones
/// are evicted, so it consumes the pool state it reads.
VolumePin PoolPinOf(ComplexDatabase* db) {
  db->disk->set_io_latency_us(0);
  db->disk->set_transfer_us(0);
  const PageId num_pages = static_cast<PageId>(db->disk->num_pages());
  std::vector<PageId> resident;
  std::vector<PageId> absent;
  for (PageId pid = 0; pid < num_pages; ++pid) {
    PageGuard g;
    (db->pool->TryFetchResident(pid, &g) ? resident : absent).push_back(pid);
  }
  std::vector<PageId> order;
  for (PageId pid : absent) {
    if (order.size() == resident.size()) break;
    {
      PageGuard g;
      EXPECT_TRUE(db->pool->FetchPage(pid, &g).ok());
    }
    for (PageId r : resident) {
      if (std::find(order.begin(), order.end(), r) != order.end()) continue;
      PageGuard g;
      if (!db->pool->TryFetchResident(r, &g)) order.push_back(r);
    }
  }
  EXPECT_EQ(order.size(), resident.size()) << "volume too small to drain";
  VolumePin pin;
  pin.pages = resident.size();
  pin.fold = Checksum64(order.data(), order.size() * sizeof(PageId));
  return pin;
}

struct LayoutCase {
  std::string name;
  DatabaseSpec spec;
  std::vector<VolumePin> shards;
  VolumePin single;
  /// PoolPinOf each shard's pool, and of the single-engine pool.
  std::vector<VolumePin> shard_pools;
  VolumePin single_pool;
};

std::vector<LayoutCase> Cases() {
  std::vector<LayoutCase> cases;
  {
    // objbench's cold_scan deployment at seed 11.
    LayoutCase c;
    c.name = "ColdScan";
    c.spec.num_parents = 20000;
    c.spec.use_factor = 5;
    c.spec.buffer_pages = 100;
    c.spec.io_latency_us = 50;
    c.spec.reclaim_temp_pages = true;
    c.spec.seed = 23;
    c.shards = {{2263, 0xa4a2e5721f602c9aULL}, {2266, 0xa8df3b10069aede2ULL}};
    c.single = {3423, 0xd36b24baf1580af2ULL};
    c.shard_pools = {{100, 0xfb46ea4412a03dc6ULL},
                     {100, 0xf9424616bebe4cb4ULL}};
    c.single_pool = {100, 0xb4322a96fa8fead8ULL};
    cases.push_back(c);
  }
  {
    // Two child relations with random sharing, every access structure.
    LayoutCase c;
    c.name = "OverlapClusterJoinCache";
    c.spec.num_parents = 600;
    c.spec.overlap_factor = 2;
    c.spec.num_child_rels = 2;
    c.spec.buffer_pages = 64;
    c.spec.build_cluster = true;
    c.spec.build_join_index = true;
    c.spec.build_cache = true;
    c.spec.size_cache = 50;
    c.spec.cache_buckets = 32;
    c.spec.seed = 7;
    c.shards = {{132, 0xffcc8277d26b7679ULL},
                {133, 0x9689a67656e76f45ULL},
                {134, 0x23117bbf714fd652ULL}};
    c.single = {249, 0x453497d92a9eaf72ULL};
    c.shard_pools = {{64, 0xd7f8327bd0c8d84fULL},
                     {64, 0x750623faa9bf2e43ULL},
                     {64, 0xed8a4659c59e2024ULL}};
    c.single_pool = {64, 0xe9b552c85e56d5b8ULL};
    cases.push_back(c);
  }
  {
    LayoutCase c;
    c.name = "CacheWalMvcc";
    c.spec.num_parents = 1000;
    c.spec.buffer_pages = 64;
    c.spec.build_cache = true;
    c.spec.size_cache = 100;
    c.spec.cache_buckets = 64;
    c.spec.enable_wal = true;
    c.spec.enable_mvcc = true;
    c.spec.seed = 5;
    c.shards = {{180, 0x521a930123a2bb5aULL}, {180, 0xc4cb608d5362d188ULL}};
    c.single = {237, 0xeb366beea5ed5981ULL};
    c.shard_pools = {{64, 0xd4794c363f19f9afULL},
                     {64, 0xd4794c363f19f9afULL}};
    c.single_pool = {64, 0xb7f6fe6cfdcc7b20ULL};
    cases.push_back(c);
  }
  return cases;
}

// Names the case in test output instead of dumping its bytes.
void PrintTo(const LayoutCase& c, std::ostream* os) { *os << c.name; }

class ShardLayoutTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(ShardLayoutTest, VolumesMatchPinnedLayout) {
  const LayoutCase& c = GetParam();
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(
                  c.spec, static_cast<uint32_t>(c.shards.size()), &sdb)
                  .ok());
  for (size_t k = 0; k < c.shards.size(); ++k) {
    EXPECT_EQ(PinOf(*sdb->shards[k]->disk), c.shards[k]) << "shard " << k;
  }
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(c.spec, &db).ok());
  EXPECT_EQ(PinOf(*db->disk), c.single) << "single-engine volume";
}

TEST_P(ShardLayoutTest, PoolsMatchPinnedState) {
  const LayoutCase& c = GetParam();
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(
                  c.spec, static_cast<uint32_t>(c.shards.size()), &sdb)
                  .ok());
  for (size_t k = 0; k < c.shards.size(); ++k) {
    EXPECT_EQ(PoolPinOf(sdb->shards[k].get()), c.shard_pools[k])
        << "shard " << k;
  }
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(c.spec, &db).ok());
  EXPECT_EQ(PoolPinOf(db.get()), c.single_pool) << "single-engine pool";
}

TEST_P(ShardLayoutTest, ShardRowsDecodeToGroundTruth) {
  const LayoutCase& c = GetParam();
  const uint32_t num_shards = static_cast<uint32_t>(c.shards.size());
  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(c.spec, num_shards, &sdb).ok());
  const ComplexDatabase& truth = *sdb->reference;
  EXPECT_EQ(truth.disk, nullptr);
  EXPECT_EQ(truth.pool, nullptr);

  for (uint32_t k = 0; k < num_shards; ++k) {
    ComplexDatabase& shard = *sdb->shards[k];
    // Decoding through the pool must not sleep on the simulated device.
    shard.disk->set_io_latency_us(0);
    std::vector<Value> vals;
    for (uint32_t p = 0; p < c.spec.num_parents; ++p) {
      Status s = shard.parent_rel->Get(p, &vals);
      if (sdb->router.ShardOfParent(p) != k) {
        EXPECT_TRUE(s.IsNotFound()) << "shard " << k << " parent " << p;
        continue;
      }
      ASSERT_TRUE(s.ok()) << "shard " << k << " parent " << p;
      ParentRow want = truth.ParentRowOf(p);
      EXPECT_EQ(vals[kParentOid].as_int64(),
                static_cast<int64_t>(want.oid.Packed()));
      EXPECT_EQ(vals[kParentRet1].as_int32(), want.ret1);
      EXPECT_EQ(vals[kParentRet2].as_int32(), want.ret2);
      EXPECT_EQ(vals[kParentRet3].as_int32(), want.ret3);
      std::vector<Oid> children =
          DecodeOidList(vals[kParentChildren].as_string());
      ASSERT_EQ(children.size(), want.children.size());
      for (size_t j = 0; j < children.size(); ++j) {
        EXPECT_EQ(children[j].Packed(), want.children[j].Packed());
      }
    }
    for (size_t r = 0; r < truth.child_rows.size(); ++r) {
      for (const ChildRow& want : truth.child_rows[r]) {
        const std::vector<uint32_t>& holders =
            sdb->router.HoldersOf(want.oid.Packed());
        bool held =
            std::find(holders.begin(), holders.end(), k) != holders.end();
        Status s = shard.child_rels[r]->Get(want.oid.key, &vals);
        if (!held) {
          EXPECT_TRUE(s.IsNotFound()) << "shard " << k << " child "
                                      << want.oid.Packed();
          continue;
        }
        ASSERT_TRUE(s.ok()) << "shard " << k << " child "
                            << want.oid.Packed();
        EXPECT_EQ(vals[kChildOid].as_int64(),
                  static_cast<int64_t>(want.oid.Packed()));
        EXPECT_EQ(vals[kChildRet1].as_int32(), want.ret1);
        EXPECT_EQ(vals[kChildRet2].as_int32(), want.ret2);
        EXPECT_EQ(vals[kChildRet3].as_int32(), want.ret3);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ShardLayoutTest, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<LayoutCase>& info) {
      return info.param.name;
    });

// A child's holders are a bitmask, one bit per shard: the build rejects a
// shard count the mask cannot name and uses its top bit at the limit.
TEST(ShardBuildTest, ShardCountIsBoundedByTheHolderMask) {
  DatabaseSpec spec;
  spec.num_parents = 320;
  spec.buffer_pages = 8;
  spec.seed = 9;
  const uint32_t n = shard::ShardRouter::kMaxShards;
  std::unique_ptr<shard::ShardedDatabase> sdb;
  EXPECT_TRUE(
      shard::BuildShardedDatabase(spec, n + 1, &sdb).IsInvalidArgument());
  EXPECT_EQ(sdb, nullptr);

  ASSERT_TRUE(shard::BuildShardedDatabase(spec, n, &sdb).ok());
  ASSERT_EQ(sdb->num_shards(), n);
  const ComplexDatabase& truth = *sdb->reference;
  for (uint32_t k = 0; k < n; ++k) {
    for (uint32_t p : sdb->local_parents[k]) {
      for (const Oid& oid : truth.units[truth.unit_of_parent[p]]) {
        const std::vector<uint32_t> holders =
            sdb->router.HoldersOf(oid.Packed());
        EXPECT_TRUE(std::binary_search(holders.begin(), holders.end(), k))
            << "child " << oid.Packed() << " shard " << k;
      }
    }
  }
  EXPECT_FALSE(sdb->local_parents[n - 1].empty());
}

// The device model applies to serving, not to building: every build write,
// the final flush included, is free. Counts simulated µs; reads no clock.
TEST(ShardBuildTest, BuildingSleepsOnNoDevice) {
  DatabaseSpec spec;
  spec.num_parents = 400;
  spec.buffer_pages = 32;
  spec.build_cluster = true;
  spec.build_cache = true;
  spec.size_cache = 20;
  spec.cache_buckets = 16;
  spec.enable_wal = true;
  spec.io_latency_us = 2000;
  spec.io_transfer_us = 100;
  spec.seed = 3;
  const Counter* device_us =
      MetricsRegistry::Global().GetCounter("disk.device_us");

  const uint64_t before = device_us->value();
  std::unique_ptr<ComplexDatabase> db;
  ASSERT_TRUE(BuildDatabase(spec, &db).ok());
  EXPECT_EQ(device_us->value(), before) << "BuildDatabase slept";
  EXPECT_EQ(db->disk->io_latency_us(), spec.io_latency_us);
  EXPECT_EQ(db->disk->transfer_us(), spec.io_transfer_us);

  std::unique_ptr<shard::ShardedDatabase> sdb;
  ASSERT_TRUE(shard::BuildShardedDatabase(spec, 2, &sdb).ok());
  EXPECT_EQ(device_us->value(), before) << "BuildShardedDatabase slept";
  for (const auto& shard : sdb->shards) {
    EXPECT_EQ(shard->disk->io_latency_us(), spec.io_latency_us);
    EXPECT_EQ(shard->disk->transfer_us(), spec.io_transfer_us);
  }
}

}  // namespace
}  // namespace objrep
