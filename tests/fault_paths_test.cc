// Regression tests for resource handling on injected-fault error paths
// (DESIGN.md §10): staging frames taken by failed hint reads must return
// to the free list at once, NewPage must return the disk page when it cannot pin a frame,
// and a failed eviction write-back must leave the victim resident and
// dirty. Each of these once leaked quietly — the pool kept working until
// the leaked resource ran out.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"

namespace objrep {
namespace {

/// Allocates `n` disk pages stamped with a recognizable byte.
std::vector<PageId> MakePages(DiskManager* disk, size_t n) {
  std::vector<PageId> pids;
  for (size_t i = 0; i < n; ++i) {
    PageId pid = disk->AllocatePage();
    Page p;
    std::memset(p.data, static_cast<int>(0x40 + i % 64), kPageSize);
    disk->WritePageRaw(pid, p);
    pids.push_back(pid);
  }
  return pids;
}

// Read-ahead window; the pool provisions 4 windows (32 staging frames).
constexpr size_t kWindow = BufferPool::kReadaheadPages;

TEST(FaultPathsTest, FailedHintReadsRecycleStagingFrames) {
  DiskManager disk;
  BufferPool pool(&disk, /*capacity=*/8);
  pool.SetPrefetchEnabled(true);
  std::vector<PageId> pids = MakePages(&disk, 9 * kWindow);

  // Fail every read: each full-window hint takes 8 staging frames, and a
  // failed hint returns them itself before it returns. Without that, 4
  // failed hints would exhaust all 32 staging frames and read-ahead would
  // be dead for the rest of the run; the 8 rounds below take twice the
  // staging frames. The demand fetch between hints shows the pool still
  // serves misses cleanly after each failure.
  FaultInjector* fi = disk.fault_injector();
  fi->Configure(/*seed=*/5, /*read_fault_rate=*/1.0, /*write_fault_rate=*/0);
  for (size_t round = 0; round < 8; ++round) {
    pool.PrefetchHint(&pids[round * kWindow], kWindow);
    EXPECT_TRUE(pool.StagedPageIds().empty());
    fi->Reset();
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[8 * kWindow + round], &g).ok());
    g.Release();
    fi->Configure(5, 1.0, 0);
  }

  // With faults off, a full window must still stage — proof no staging
  // frame was permanently lost to the 8 failed rounds above.
  fi->Reset();
  uint64_t before = pool.prefetched_pages();
  pool.PrefetchHint(pids.data(), kWindow);
  EXPECT_EQ(pool.prefetched_pages(), before + kWindow);
  EXPECT_EQ(pool.StagedPageIds().size(), kWindow);
  for (size_t i = 0; i < kWindow; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[i], &g).ok());
    EXPECT_EQ(g.page()->data[0], static_cast<char>(0x40 + i));
  }
}

// Failed hints free their staging frames at once, with no demand fetch
// (or any other evict_mu_ section) in between: eight failed full-window
// hints back to back would otherwise take twice the 32 staging frames.
TEST(FaultPathsTest, FailedHintsReturnStagingFramesAtOnce) {
  DiskManager disk;
  BufferPool pool(&disk, /*capacity=*/8);
  pool.SetPrefetchEnabled(true);
  std::vector<PageId> pids = MakePages(&disk, 9 * kWindow);

  FaultInjector* fi = disk.fault_injector();
  fi->Configure(/*seed=*/5, /*read_fault_rate=*/1.0, /*write_fault_rate=*/0);
  for (size_t round = 0; round < 8; ++round) {
    pool.PrefetchHint(&pids[round * kWindow], kWindow);
  }
  fi->Reset();
  EXPECT_EQ(pool.prefetch_wasted(), 8 * kWindow);
  pool.PrefetchHint(&pids[8 * kWindow], kWindow);
  EXPECT_EQ(pool.prefetched_pages(), kWindow);
  EXPECT_EQ(pool.StagedPageIds().size(), kWindow);
}

TEST(FaultPathsTest, NewPageReturnsDiskPageWhenPoolExhausted) {
  DiskManager disk;
  BufferPool pool(&disk, /*capacity=*/4);
  std::vector<PageGuard> pins(4);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.NewPage(&pins[i]).ok());
  }
  uint64_t live = disk.num_pages() - disk.num_free_pages();

  // Every frame is pinned: NewPage allocates a disk page, fails to pin a
  // frame for it, and must give the page back.
  for (int i = 0; i < 10; ++i) {
    PageGuard g;
    Status s = pool.NewPage(&g);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(disk.num_pages() - disk.num_free_pages(), live)
        << "failed NewPage leaked a disk page";
  }
}

TEST(FaultPathsTest, EvictionWriteFailurePreservesDirtyData) {
  DiskManager disk;
  BufferPool pool(&disk, /*capacity=*/2);
  std::vector<PageId> pids = MakePages(&disk, 4);

  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
    g.page()->data[0] = 'X';
    g.MarkDirty();
  }
  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[1], &g).ok());
  }

  // Fetching a third page must evict pids[0] (LRU), whose write-back
  // fails; the miss surfaces the error and the dirty frame stays intact.
  FaultInjector* fi = disk.fault_injector();
  fi->Configure(/*seed=*/7, /*read_fault_rate=*/0, /*write_fault_rate=*/1.0);
  {
    PageGuard g;
    Status s = pool.FetchPage(pids[2], &g);
    ASSERT_FALSE(s.ok());
  }
  fi->Reset();

  // The modified byte survives: still resident (the fetch is a hit, so no
  // disk read could have refreshed it) and still dirty.
  uint64_t hits = pool.hits();
  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
    EXPECT_EQ(pool.hits(), hits + 1);
    EXPECT_EQ(g.page()->data[0], 'X');
  }
  // And with the device healthy again the eviction completes normally.
  {
    PageGuard g;
    ASSERT_TRUE(pool.FetchPage(pids[2], &g).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  Page p;
  ASSERT_TRUE(disk.ReadPageRaw(pids[0], &p).ok());
  EXPECT_EQ(p.data[0], 'X');
}

}  // namespace
}  // namespace objrep
