// Focused tests for B+-tree cursor semantics — especially SeekForward,
// whose sequential-within-leaf / probe-across-leaves behaviour is what
// makes the BFS merge join competitive (see relational/merge_join.cc).
#include <gtest/gtest.h>

#include <vector>

#include "access/btree.h"
#include "util/random.h"

namespace objrep {
namespace {

class BTreeIteratorTest : public ::testing::Test {
 protected:
  BTreeIteratorTest() : pool_(&disk_, 64) {}

  void Load(uint64_t n, uint64_t stride, size_t value_len = 40) {
    std::vector<BPlusTree::Entry> entries;
    for (uint64_t i = 0; i < n; ++i) {
      entries.push_back({i * stride, std::string(value_len, 'v')});
    }
    ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree_).ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  BPlusTree tree_;
};

TEST_F(BTreeIteratorTest, SeekForwardWithinLeaf) {
  Load(1000, 2);
  auto it = tree_.NewIterator();
  ASSERT_TRUE(it.Seek(0).ok());
  // Consecutive keys on the same leaf: no re-descend needed.
  for (uint64_t k = 0; k < 60; k += 2) {
    ASSERT_TRUE(it.SeekForward(k).ok());
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key(), k);
  }
}

TEST_F(BTreeIteratorTest, SeekForwardAcrossDistantLeaves) {
  Load(10000, 2);
  auto it = tree_.NewIterator();
  ASSERT_TRUE(it.Seek(0).ok());
  ASSERT_TRUE(it.SeekForward(19000).ok());
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 19000u);
  // Missing key: lands on the next present one.
  ASSERT_TRUE(it.SeekForward(19001).ok());
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 19002u);
}

TEST_F(BTreeIteratorTest, SeekForwardPastEndInvalidates) {
  Load(100, 1);
  auto it = tree_.NewIterator();
  ASSERT_TRUE(it.Seek(0).ok());
  ASSERT_TRUE(it.SeekForward(1000).ok());
  EXPECT_FALSE(it.valid());
  // Once invalid, SeekForward stays invalid (stream exhausted).
  ASSERT_TRUE(it.SeekForward(5).ok());
  EXPECT_FALSE(it.valid());
}

TEST_F(BTreeIteratorTest, SeekForwardIsNoopWhenAlreadyPositioned) {
  Load(100, 10);
  auto it = tree_.NewIterator();
  ASSERT_TRUE(it.Seek(500).ok());
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), 500u);
  // A key at or before the cursor leaves it in place.
  ASSERT_TRUE(it.SeekForward(495).ok());
  EXPECT_EQ(it.key(), 500u);
  ASSERT_TRUE(it.SeekForward(500).ok());
  EXPECT_EQ(it.key(), 500u);
}

TEST_F(BTreeIteratorTest, SeekForwardEquivalentToSeekOverRandomStream) {
  Load(5000, 3);
  Rng rng(99);
  std::vector<uint64_t> stream;
  uint64_t cur = 0;
  for (int i = 0; i < 500; ++i) {
    cur += rng.Uniform(60);  // ascending stream, mixed densities
    stream.push_back(cur);
  }
  auto fwd = tree_.NewIterator();
  ASSERT_TRUE(fwd.Seek(stream[0]).ok());
  for (uint64_t k : stream) {
    ASSERT_TRUE(fwd.SeekForward(k).ok());
    auto ref = tree_.NewIterator();
    ASSERT_TRUE(ref.Seek(k).ok());
    ASSERT_EQ(fwd.valid(), ref.valid()) << "key " << k;
    if (!fwd.valid()) break;
    EXPECT_EQ(fwd.key(), ref.key()) << "key " << k;
  }
}

TEST_F(BTreeIteratorTest, DenseSeekForwardCostsLikeSequentialScan) {
  Load(20000, 1, 40);  // ~43 entries/leaf => ~460 leaves
  // Warm nothing: count I/O for visiting every key via SeekForward.
  ASSERT_TRUE(pool_.FlushAll().ok());
  disk_.ResetCounters();
  auto it = tree_.NewIterator();
  ASSERT_TRUE(it.Seek(0).ok());
  for (uint64_t k = 0; k < 20000; ++k) {
    ASSERT_TRUE(it.SeekForward(k).ok());
    ASSERT_TRUE(it.valid());
  }
  uint64_t io = disk_.counters().total();
  uint32_t leaves = tree_.stats().leaf_pages;
  // Within ~15% of a pure leaf-chain scan (re-descends hit buffered
  // internal pages).
  EXPECT_LE(io, leaves + leaves / 4);
  EXPECT_GE(io, leaves);
}

TEST_F(BTreeIteratorTest, IteratorOnEmptyTree) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  auto it = tree.NewIterator();
  ASSERT_TRUE(it.Seek(42).ok());
  EXPECT_FALSE(it.valid());
  ASSERT_TRUE(it.Next().ok());
  EXPECT_FALSE(it.valid());
}

TEST_F(BTreeIteratorTest, MultipleIteratorsCoexist) {
  Load(2000, 1);
  auto a = tree_.NewIterator();
  auto b = tree_.NewIterator();
  ASSERT_TRUE(a.Seek(0).ok());
  ASSERT_TRUE(b.Seek(1500).ok());
  EXPECT_EQ(a.key(), 0u);
  EXPECT_EQ(b.key(), 1500u);
  ASSERT_TRUE(a.Next().ok());
  EXPECT_EQ(a.key(), 1u);
  EXPECT_EQ(b.key(), 1500u);
}

}  // namespace
}  // namespace objrep
