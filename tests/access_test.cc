// Unit tests for heap file, ISAM index, and hash file.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "access/hash_file.h"
#include "access/heap_file.h"
#include "access/isam.h"
#include "util/random.h"

namespace objrep {
namespace {

class AccessTest : public ::testing::Test {
 protected:
  AccessTest() : pool_(&disk_, 32) {}
  DiskManager disk_;
  BufferPool pool_;
};

// --- HeapFile ---

TEST_F(AccessTest, HeapAppendGetScan) {
  HeapFile heap;
  ASSERT_TRUE(HeapFile::Create(&pool_, &heap).ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    Rid rid;
    ASSERT_TRUE(heap.Append("rec" + std::to_string(i), &rid).ok());
    rids.push_back(rid);
  }
  EXPECT_GT(heap.num_pages(), 1u);
  std::string v;
  ASSERT_TRUE(heap.Get(rids[123], &v).ok());
  EXPECT_EQ(v, "rec123");
  // Scan visits all records in append order.
  int i = 0;
  for (auto it = heap.Scan(); it.valid();) {
    EXPECT_EQ(it.record(), "rec" + std::to_string(i));
    ++i;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(i, 500);
}

TEST_F(AccessTest, HeapUpdateInPlace) {
  HeapFile heap;
  ASSERT_TRUE(HeapFile::Create(&pool_, &heap).ok());
  Rid rid;
  ASSERT_TRUE(heap.Append("aaaa", &rid).ok());
  ASSERT_TRUE(heap.UpdateInPlace(rid, "bbbb").ok());
  std::string v;
  ASSERT_TRUE(heap.Get(rid, &v).ok());
  EXPECT_EQ(v, "bbbb");
  EXPECT_TRUE(heap.UpdateInPlace(rid, "ccc").IsInvalidArgument());
}

TEST_F(AccessTest, HeapRejectsOversizeRecord) {
  HeapFile heap;
  ASSERT_TRUE(HeapFile::Create(&pool_, &heap).ok());
  std::string huge(kPageSize, 'h');
  EXPECT_FALSE(heap.Append(huge).ok());
}

TEST_F(AccessTest, HeapEmptyScanInvalid) {
  HeapFile heap;
  ASSERT_TRUE(HeapFile::Create(&pool_, &heap).ok());
  EXPECT_FALSE(heap.Scan().valid());
}

// --- IsamIndex ---

TEST_F(AccessTest, IsamLookupHitsAndMisses) {
  std::vector<IsamIndex::Entry> entries;
  for (uint64_t k = 0; k < 10000; ++k) {
    entries.push_back({k * 2 + 1, k * 100});
  }
  IsamIndex isam;
  ASSERT_TRUE(IsamIndex::Build(&pool_, entries, &isam).ok());
  EXPECT_GT(isam.height(), 1u);
  uint64_t payload;
  for (uint64_t k = 0; k < 10000; k += 111) {
    ASSERT_TRUE(isam.Lookup(k * 2 + 1, &payload).ok());
    EXPECT_EQ(payload, k * 100);
    EXPECT_TRUE(isam.Lookup(k * 2, &payload).IsNotFound());
  }
  // Below the minimum and above the maximum.
  EXPECT_TRUE(isam.Lookup(0, &payload).IsNotFound());
  EXPECT_TRUE(isam.Lookup(999999, &payload).IsNotFound());
}

TEST_F(AccessTest, IsamSingleEntry) {
  IsamIndex isam;
  ASSERT_TRUE(IsamIndex::Build(&pool_, {{42, 7}}, &isam).ok());
  EXPECT_EQ(isam.height(), 1u);
  uint64_t payload;
  ASSERT_TRUE(isam.Lookup(42, &payload).ok());
  EXPECT_EQ(payload, 7u);
  EXPECT_TRUE(isam.Lookup(41, &payload).IsNotFound());
  EXPECT_TRUE(isam.Lookup(43, &payload).IsNotFound());
}

TEST_F(AccessTest, IsamRejectsUnsorted) {
  IsamIndex isam;
  EXPECT_TRUE(
      IsamIndex::Build(&pool_, {{5, 0}, {4, 0}}, &isam).IsInvalidArgument());
}

TEST_F(AccessTest, IsamEmptyBuild) {
  IsamIndex isam;
  ASSERT_TRUE(IsamIndex::Build(&pool_, {}, &isam).ok());
  uint64_t payload;
  EXPECT_TRUE(isam.Lookup(1, &payload).IsNotFound());
}

// --- HashFile ---

TEST_F(AccessTest, HashInsertLookupDelete) {
  HashFile hash;
  ASSERT_TRUE(HashFile::Create(&pool_, 8, &hash).ok());
  const std::string pad(100, '.');
  for (uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(hash.Insert(k, "val" + std::to_string(k) + pad).ok());
  }
  EXPECT_EQ(hash.num_entries(), 300u);
  EXPECT_GT(hash.num_pages(), 8u);  // overflow chains grew
  std::string v;
  for (uint64_t k = 0; k < 300; k += 7) {
    ASSERT_TRUE(hash.Lookup(k, &v).ok());
    EXPECT_EQ(v, "val" + std::to_string(k) + pad);
  }
  EXPECT_TRUE(hash.Lookup(12345, &v).IsNotFound());
  ASSERT_TRUE(hash.Delete(100).ok());
  EXPECT_TRUE(hash.Lookup(100, &v).IsNotFound());
  EXPECT_TRUE(hash.Delete(100).IsNotFound());
  EXPECT_EQ(hash.num_entries(), 299u);
}

TEST_F(AccessTest, HashRejectsDuplicateKey) {
  HashFile hash;
  ASSERT_TRUE(HashFile::Create(&pool_, 4, &hash).ok());
  ASSERT_TRUE(hash.Insert(9, "a").ok());
  EXPECT_TRUE(hash.Insert(9, "b").IsInvalidArgument());
}

TEST_F(AccessTest, HashContains) {
  HashFile hash;
  ASSERT_TRUE(HashFile::Create(&pool_, 4, &hash).ok());
  ASSERT_TRUE(hash.Insert(1, "x").ok());
  bool found = false;
  ASSERT_TRUE(hash.Contains(1, &found).ok());
  EXPECT_TRUE(found);
  ASSERT_TRUE(hash.Contains(2, &found).ok());
  EXPECT_FALSE(found);
}

TEST_F(AccessTest, HashReusesSpaceAfterDelete) {
  HashFile hash;
  ASSERT_TRUE(HashFile::Create(&pool_, 1, &hash).ok());
  // Fill one bucket page, delete everything, refill: the chain should not
  // grow without bound because Insert compacts before chaining.
  std::string big(400, 'b');
  for (int round = 0; round < 5; ++round) {
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(hash.Insert(1000 * static_cast<uint64_t>(round) + k, big)
                      .ok());
    }
    for (uint64_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(hash.Delete(1000 * static_cast<uint64_t>(round) + k).ok());
    }
  }
  EXPECT_LE(hash.num_pages(), 3u);
}

TEST_F(AccessTest, HashRandomizedAgainstModel) {
  HashFile hash;
  ASSERT_TRUE(HashFile::Create(&pool_, 16, &hash).ok());
  Rng rng(77);
  std::map<uint64_t, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    uint64_t k = rng.Uniform(500);
    if (rng.Bernoulli(0.6)) {
      std::string v = "v";
      v += std::to_string(rng.Next() % 1000);
      Status s = hash.Insert(k, v);
      if (model.count(k)) {
        EXPECT_TRUE(s.IsInvalidArgument());
      } else {
        ASSERT_TRUE(s.ok());
        model[k] = v;
      }
    } else {
      Status s = hash.Delete(k);
      EXPECT_EQ(s.ok(), model.erase(k) > 0);
    }
  }
  EXPECT_EQ(hash.num_entries(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(hash.Lookup(k, &got).ok());
    EXPECT_EQ(got, v);
  }
}

}  // namespace
}  // namespace objrep
