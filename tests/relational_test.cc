// Unit tests for the relational layer: temp files, external sort,
// merge join, and Table/Catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "relational/external_sort.h"
#include "relational/merge_join.h"
#include "relational/table.h"
#include "relational/temp_file.h"
#include "util/random.h"

namespace objrep {
namespace {

class RelationalTest : public ::testing::Test {
 protected:
  RelationalTest() : pool_(&disk_, 48) {}

  TempFile MakeTemp(const std::vector<uint64_t>& values) {
    TempFile t;
    EXPECT_TRUE(TempFile::Create(&pool_, &t).ok());
    for (uint64_t v : values) EXPECT_TRUE(t.Append(v).ok());
    t.Seal();
    return t;
  }

  std::vector<uint64_t> ReadAll(const TempFile& t) {
    std::vector<uint64_t> out;
    for (auto r = t.Read(); r.valid();) {
      out.push_back(r.value());
      EXPECT_TRUE(r.Next().ok());
    }
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(RelationalTest, TempFileRoundTrip) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.push_back(i * 7);
  TempFile t = MakeTemp(values);
  EXPECT_EQ(t.num_entries(), 1000u);
  EXPECT_EQ(t.num_pages(), (1000 + TempFile::kEntriesPerPage - 1) /
                               TempFile::kEntriesPerPage);
  EXPECT_EQ(ReadAll(t), values);
}

TEST_F(RelationalTest, TempFileEmpty) {
  TempFile t = MakeTemp({});
  EXPECT_EQ(t.num_entries(), 0u);
  EXPECT_FALSE(t.Read().valid());
}

TEST_F(RelationalTest, ExternalSortSortsLargeInput) {
  Rng rng(5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.Uniform(1u << 30));
  TempFile input = MakeTemp(values);
  TempFile sorted;
  SortOptions opts;
  opts.work_mem_pages = 4;  // force multiple runs and a real merge
  ASSERT_TRUE(ExternalSort(&pool_, input, opts, &sorted).ok());
  std::vector<uint64_t> got = ReadAll(sorted);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(got, values);
}

TEST_F(RelationalTest, ExternalSortDedup) {
  std::vector<uint64_t> values = {5, 3, 5, 1, 3, 3, 9, 1};
  TempFile input = MakeTemp(values);
  TempFile sorted;
  SortOptions opts;
  opts.dedup = true;
  ASSERT_TRUE(ExternalSort(&pool_, input, opts, &sorted).ok());
  EXPECT_EQ(ReadAll(sorted), (std::vector<uint64_t>{1, 3, 5, 9}));
}

TEST_F(RelationalTest, ExternalSortDedupAcrossRuns) {
  // Duplicates that land in *different* runs must still be removed.
  std::vector<uint64_t> values;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t v = 0; v < 2000; ++v) values.push_back(v);
  }
  TempFile input = MakeTemp(values);
  TempFile sorted;
  SortOptions opts;
  opts.work_mem_pages = 4;
  opts.dedup = true;
  ASSERT_TRUE(ExternalSort(&pool_, input, opts, &sorted).ok());
  std::vector<uint64_t> got = ReadAll(sorted);
  ASSERT_EQ(got.size(), 2000u);
  for (uint64_t v = 0; v < 2000; ++v) EXPECT_EQ(got[v], v);
}

TEST_F(RelationalTest, ExternalSortEmptyInput) {
  TempFile input = MakeTemp({});
  TempFile sorted;
  ASSERT_TRUE(ExternalSort(&pool_, input, SortOptions{}, &sorted).ok());
  EXPECT_EQ(sorted.num_entries(), 0u);
}

TEST_F(RelationalTest, ExternalSortChargesIo) {
  // 50,000 entries = ~197 pages, far beyond the 48-frame pool: run
  // formation and merging must do real physical I/O.
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 50000; ++i) values.push_back(50000 - i);
  TempFile input = MakeTemp(values);
  ASSERT_TRUE(pool_.FlushAll().ok());
  disk_.ResetCounters();
  TempFile sorted;
  SortOptions opts;
  opts.work_mem_pages = 4;
  ASSERT_TRUE(ExternalSort(&pool_, input, opts, &sorted).ok());
  uint64_t input_pages = input.num_pages();
  // At least: read the input once and write the output once.
  EXPECT_GT(disk_.counters().total(), input_pages);
  EXPECT_EQ(ReadAll(sorted).size(), values.size());
}

TEST_F(RelationalTest, MergeJoinMatchesAndSkips) {
  std::vector<BPlusTree::Entry> entries;
  for (uint64_t k = 0; k < 100; k += 2) {
    std::string v = "v";
    v += std::to_string(k);
    entries.push_back({k, v});
  }
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::BulkLoad(&pool_, entries, &tree).ok());
  // Stream with hits, misses, and duplicates.
  TempFile keys = MakeTemp({0, 1, 2, 2, 2, 50, 51, 98, 98, 99});
  std::vector<std::pair<uint64_t, std::string>> matches;
  ASSERT_TRUE(MergeJoinSortedKeys(
                  keys.Read(), tree,
                  [&](uint64_t k, std::string_view v) {
                    matches.emplace_back(k, std::string(v));
                    return Status::OK();
                  })
                  .ok());
  std::vector<std::pair<uint64_t, std::string>> expect = {
      {0, "v0"},  {2, "v2"},  {2, "v2"},  {2, "v2"},
      {50, "v50"}, {98, "v98"}, {98, "v98"}};
  EXPECT_EQ(matches, expect);
}

TEST_F(RelationalTest, MergeJoinEmptyStream) {
  BPlusTree tree;
  ASSERT_TRUE(BPlusTree::Create(&pool_, &tree).ok());
  TempFile keys = MakeTemp({});
  int calls = 0;
  ASSERT_TRUE(MergeJoinSortedKeys(keys.Read(), tree,
                                  [&](uint64_t, std::string_view) {
                                    ++calls;
                                    return Status::OK();
                                  })
                  .ok());
  EXPECT_EQ(calls, 0);
}

TEST_F(RelationalTest, TableRoundTripAndProjection) {
  Catalog catalog;
  Table* t = catalog.Register(
      "T", Schema({{"id", FieldType::kInt64, 0},
                   {"n", FieldType::kInt32, 0},
                   {"pad", FieldType::kChar, 30}}));
  std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
  for (uint64_t k = 0; k < 200; ++k) {
    rows.emplace_back(
        k, std::vector<Value>{Value(static_cast<int64_t>(k)),
                              Value(static_cast<int32_t>(k * 10)),
                              Value(std::string(30, 'p'))});
  }
  ASSERT_TRUE(t->BulkLoad(&pool_, rows).ok());
  std::vector<Value> row;
  ASSERT_TRUE(t->Get(7, &row).ok());
  EXPECT_EQ(row[1].as_int32(), 70);
  Value v;
  ASSERT_TRUE(t->GetField(9, 1, &v).ok());
  EXPECT_EQ(v.as_int32(), 90);
  // In-place update.
  row[1] = Value(int32_t{-1});
  ASSERT_TRUE(t->UpdateInPlace(7, row).ok());
  ASSERT_TRUE(t->GetField(7, 1, &v).ok());
  EXPECT_EQ(v.as_int32(), -1);
}

TEST_F(RelationalTest, CatalogLookupByNameAndId) {
  Catalog catalog;
  Table* a = catalog.Register("A", Schema({{"x", FieldType::kInt32, 0}}));
  Table* b = catalog.Register("B", Schema({{"x", FieldType::kInt32, 0}}));
  EXPECT_NE(a->rel_id(), b->rel_id());
  EXPECT_EQ(catalog.Find("A"), a);
  EXPECT_EQ(catalog.Find("C"), nullptr);
  EXPECT_EQ(catalog.FindById(b->rel_id()), b);
  EXPECT_EQ(catalog.num_tables(), 2u);
}

}  // namespace
}  // namespace objrep
