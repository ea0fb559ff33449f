// I/O-scheduling buffer pool tests (DESIGN.md §9): staging-frame
// prefetch and promotion, the temp-page free list, and a concurrency smoke
// for the TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace objrep {
namespace {

// Allocates `n` pages, each stamped with its index, through a throwaway
// pool so the subject pool under test starts cold.
std::vector<PageId> MakePages(DiskManager* disk, int n) {
  std::vector<PageId> pids;
  BufferPool loader(disk, 4);
  for (int i = 0; i < n; ++i) {
    PageGuard g;
    EXPECT_TRUE(loader.NewPage(&g).ok());
    g.page()->data[0] = static_cast<char>('a' + i % 26);
    pids.push_back(g.page_id());
  }
  EXPECT_TRUE(loader.FlushAll().ok());
  return pids;
}

TEST(PrefetchTest, StagesWithoutEvictionAndPromotesWithoutRereading) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 6);
  BufferPool pool(&disk, 2);
  pool.SetPrefetchEnabled(true);
  // Fill the pool; both residents stay resident across the prefetch.
  PageGuard a, b;
  ASSERT_TRUE(pool.FetchPage(pids[0], &a).ok());
  ASSERT_TRUE(pool.FetchPage(pids[1], &b).ok());
  disk.ResetCounters();
  uint64_t h0 = pool.hits(), m0 = pool.misses();
  pool.PrefetchHint(pids.data() + 2, 2);
  EXPECT_EQ(disk.counters().reads, 2u);  // staged via one vectored read
  EXPECT_EQ(pool.hits(), h0);            // hints never touch hit/miss
  EXPECT_EQ(pool.misses(), m0);
  EXPECT_EQ(pool.prefetched_pages(), 2u);
  EXPECT_EQ(pool.StagedPageIds().size(), 2u);
  // Residents were not evicted by the staging.
  PageGuard t;
  EXPECT_TRUE(pool.TryFetchResident(pids[0], &t));
  t.Release();
  // First demand access: counts the miss the demand run would take, but
  // performs no further disk read.
  a.Release();
  PageGuard c;
  ASSERT_TRUE(pool.FetchPage(pids[2], &c).ok());
  EXPECT_EQ(c.page()->data[0], 'c');
  EXPECT_EQ(disk.counters().reads, 2u);  // unchanged
  EXPECT_EQ(pool.misses(), m0 + 1);
  EXPECT_EQ(pool.StagedPageIds().size(), 1u);  // one staged page consumed
}

// Staged pages the consumer never read are dropped, not leaked: when the
// prefetch policy is re-provisioned (the staging frames go with it) and
// when recovery empties the pool. Each drop counts as wasted read-ahead.
TEST(PrefetchTest, ReprovisioningAndDropAllFramesDropStagedPages) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 8);
  BufferPool pool(&disk, 4);
  pool.SetPrefetchEnabled(true);
  pool.PrefetchHint(pids.data(), 4);
  ASSERT_EQ(pool.StagedPageIds().size(), 4u);
  pool.SetPrefetchEnabled(true);
  EXPECT_TRUE(pool.StagedPageIds().empty());
  EXPECT_EQ(pool.prefetch_wasted(), 4u);
  pool.PrefetchHint(pids.data(), 4);  // every staging frame is free again
  EXPECT_EQ(pool.prefetched_pages(), 8u);
  EXPECT_EQ(pool.StagedPageIds().size(), 4u);

  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[5], &g).ok());
  }
  EXPECT_EQ(pool.DropAllFrames(), 1u);
  EXPECT_TRUE(pool.StagedPageIds().empty());
  EXPECT_EQ(pool.prefetch_wasted(), 8u);
  disk.ResetCounters();
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
  EXPECT_EQ(g.page()->data[0], 'a');
  EXPECT_EQ(disk.counters().reads, 1u);  // the dropped copy is not served
}

TEST(DiskManagerTest, FreedPagesAreReused) {
  DiskManager disk;
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  uint64_t grown = disk.num_pages();
  disk.FreePage(a);
  EXPECT_EQ(disk.num_free_pages(), 1u);
  PageId c = disk.AllocatePage();
  EXPECT_EQ(c, a);  // recycled, not extended
  EXPECT_EQ(disk.num_pages(), grown);
  EXPECT_EQ(disk.num_free_pages(), 0u);
  (void)b;
}

// Concurrency smoke for the TSan job: demand fetches (single, and four
// pins held at once) race prefetch hints — each hinting fetcher's own, and
// a dedicated hinter thread's that nobody waits for — over a working set
// larger than the pool.
TEST(BufferPoolConcurrencyTest, FetchesRacePrefetchHints) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 64);
  BufferPool pool(&disk, 16);
  pool.SetPrefetchEnabled(true);
  std::atomic<bool> failed{false};
  auto worker = [&](unsigned seed, bool grouped) {
    for (int iter = 0; iter < 400 && !failed.load(); ++iter) {
      seed = seed * 1664525u + 1013904223u;
      size_t at = seed % (pids.size() - 4);
      if (grouped) {
        PageGuard guards[4];
        for (size_t j = 0; j < 4; ++j) {
          if (!pool.FetchPage(pids[at + j], &guards[j]).ok() ||
              guards[j].page()->data[0] !=
                  static_cast<char>('a' + (at + j) % 26)) {
            failed.store(true);
          }
        }
      } else {
        pool.PrefetchHint(pids.data() + at, 4);
        PageGuard g;
        if (!pool.FetchPage(pids[at], &g).ok() ||
            g.page()->data[0] != static_cast<char>('a' + at % 26)) {
          failed.store(true);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker, 17u * (t + 1), t % 2 == 0);
  }
  threads.emplace_back([&] {
    unsigned seed = 101u;
    for (int iter = 0; iter < 400 && !failed.load(); ++iter) {
      seed = seed * 1664525u + 1013904223u;
      pool.PrefetchHint(pids.data() + seed % (pids.size() - 4), 4);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace objrep
