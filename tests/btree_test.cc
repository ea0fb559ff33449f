// Unit and property tests for the B+-tree — the primary structure of all
// the paper's relations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "access/btree.h"
#include "util/random.h"

namespace objrep {
namespace {

std::string ValFor(uint64_t key, size_t len = 20) {
  std::string v = "v";
  v += std::to_string(key);
  v += '-';
  v.resize(len, 'p');
  return v;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 64) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTreeGetsNotFound) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  std::string v;
  EXPECT_TRUE(tree.Get(1, &v).IsNotFound());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  EXPECT_FALSE(it.valid());
}

TEST_F(BTreeTest, BulkLoadAndGetAll) {
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 0; k < 5000; ++k) {
    entries.push_back({k * 3, ValFor(k * 3)});
  }
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).ok());
  EXPECT_EQ(tree.stats().num_entries, 5000u);
  EXPECT_GT(tree.stats().height, 1u);
  std::string v;
  for (uint64_t k = 0; k < 5000; k += 97) {
    ASSERT_TRUE(tree.Get(k * 3, &v).ok());
    EXPECT_EQ(v, ValFor(k * 3));
    EXPECT_TRUE(tree.Get(k * 3 + 1, &v).IsNotFound());
  }
}

TEST_F(BTreeTest, BulkLoadRejectsUnsorted) {
  std::vector<BPlusTree::Entry> entries = {{5, "a"}, {3, "b"}};
  BPlusTree tree;
  EXPECT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).IsInvalidArgument());
  entries = {{5, "a"}, {5, "b"}};
  EXPECT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).IsInvalidArgument());
}

// A streaming source is checked as it is pulled: a key that goes backwards
// after several leaves' worth of entries fails the load, and so does a
// repeated key.
TEST_F(BTreeTest, StreamingBulkLoadRejectsAKeyOutOfOrderMidStream) {
  for (uint64_t bad : {uint64_t{1500}, uint64_t{2999}}) {
    uint64_t k = 0;
    std::string value;
    BPlusTree tree;
    Status s = BPlusTree::BulkLoad(
        &pool_,
        [&](uint64_t* key, std::string_view* v) {
          if (k == 4000) return false;
          *key = k == 3000 ? bad : k;
          ++k;
          value = ValFor(*key);
          *v = value;
          return true;
        },
        &tree);
    EXPECT_TRUE(s.IsInvalidArgument()) << "key " << bad << ": " << s.ToString();
    EXPECT_EQ(k, 3001u) << "the load read past the bad key";
  }
}

TEST_F(BTreeTest, IteratorScansInOrder) {
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 10; k <= 2000; k += 10) {
    entries.push_back({k, ValFor(k)});
  }
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).ok());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t expect = 10;
  while (it.valid()) {
    EXPECT_EQ(it.key(), expect);
    EXPECT_EQ(it.value(), ValFor(expect));
    expect += 10;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(expect, 2010u);
}

TEST_F(BTreeTest, SeekPositionsAtLowerBound) {
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 10; k <= 1000; k += 10) {
    entries.push_back({k, ValFor(k)});
  }
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).ok());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.Seek(255).ok());
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 260u);
  ASSERT_TRUE(it.Seek(10).ok());
  EXPECT_EQ(it.key(), 10u);
  ASSERT_TRUE(it.Seek(1000).ok());
  EXPECT_EQ(it.key(), 1000u);
  ASSERT_TRUE(it.Seek(1001).ok());
  EXPECT_FALSE(it.valid());
}

TEST_F(BTreeTest, InsertIntoEmptyAndGrow) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  Rng rng(13);
  std::map<uint64_t, std::string> model;
  for (int i = 0; i < 3000; ++i) {
    uint64_t k = rng.Uniform(100000);
    if (model.count(k)) {
      EXPECT_TRUE(tree.Insert(k, "dup").IsInvalidArgument());
      continue;
    }
    std::string v = ValFor(k, 10 + k % 40);
    ASSERT_TRUE(tree.Insert(k, v).ok());
    model[k] = v;
  }
  EXPECT_EQ(tree.stats().num_entries, model.size());
  EXPECT_GT(tree.stats().height, 1u);
  // Full scan matches the model.
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto mit = model.begin();
  while (it.valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    EXPECT_EQ(it.value(), mit->second);
    ++mit;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(mit, model.end());
}

TEST_F(BTreeTest, InsertSequentialKeys) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Insert(k, ValFor(k)).ok());
  }
  std::string v;
  for (uint64_t k = 0; k < 2000; k += 37) {
    ASSERT_TRUE(tree.Get(k, &v).ok());
    EXPECT_EQ(v, ValFor(k));
  }
}

TEST_F(BTreeTest, UpdateInPlaceSameSize) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  ASSERT_TRUE(tree.Insert(7, "AAAA").ok());
  ASSERT_TRUE(tree.UpdateInPlace(7, "BBBB").ok());
  std::string v;
  ASSERT_TRUE(tree.Get(7, &v).ok());
  EXPECT_EQ(v, "BBBB");
  EXPECT_TRUE(tree.UpdateInPlace(7, "toolong").IsInvalidArgument());
  EXPECT_TRUE(tree.UpdateInPlace(8, "BBBB").IsNotFound());
}

TEST_F(BTreeTest, DeleteRemovesKey) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Insert(k, ValFor(k)).ok());
  }
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree.Delete(k).ok());
  }
  EXPECT_TRUE(tree.Delete(2).IsNotFound());
  std::string v;
  for (uint64_t k = 0; k < 100; ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(tree.Get(k, &v).IsNotFound());
    } else {
      EXPECT_TRUE(tree.Get(k, &v).ok());
    }
  }
  // Iterator sees only odd keys.
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t count = 0;
  while (it.valid()) {
    EXPECT_EQ(it.key() % 2, 1u);
    ++count;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(count, 50u);
}

TEST_F(BTreeTest, MixedBulkLoadTheninsert) {
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 0; k < 1000; k += 2) entries.push_back({k, ValFor(k)});
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).ok());
  // Insert the odd keys into fully packed leaves — forces splits.
  for (uint64_t k = 1; k < 1000; k += 2) {
    ASSERT_TRUE(tree.Insert(k, ValFor(k)).ok());
  }
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  uint64_t expect = 0;
  while (it.valid()) {
    EXPECT_EQ(it.key(), expect);
    ++expect;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(expect, 1000u);
}

// Property sweep: random workloads at several sizes stay consistent with a
// std::map model.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesModelUnderRandomOps) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool, &tree).ok());
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::map<uint64_t, std::string> model;
  const int ops = 4000;
  for (int i = 0; i < ops; ++i) {
    uint64_t k = rng.Uniform(5000);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // insert
        std::string v = ValFor(k, 8 + rng.Uniform(32));
        Status s = tree.Insert(k, v);
        if (model.count(k)) {
          EXPECT_TRUE(s.IsInvalidArgument());
        } else {
          ASSERT_TRUE(s.ok());
          model[k] = v;
        }
        break;
      }
      case 2: {  // delete
        Status s = tree.Delete(k);
        EXPECT_EQ(s.ok(), model.erase(k) > 0);
        break;
      }
      case 3: {  // lookup
        std::string v;
        Status s = tree.Get(k, &v);
        auto it = model.find(k);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(v, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(tree.stats().num_entries, model.size());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.SeekToFirst().ok());
  auto mit = model.begin();
  while (it.valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it.key(), mit->first);
    ++mit;
    ASSERT_TRUE(it.Next().ok());
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace objrep
