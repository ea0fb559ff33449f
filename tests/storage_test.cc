// Unit tests for the storage layer: DiskManager accounting and BufferPool
// caching / LRU / dirty write-back semantics — the foundation of every
// cost number in the reproduction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace objrep {
namespace {

TEST(DiskManagerTest, AllocateReadWriteRoundTrip) {
  DiskManager disk;
  PageId pid = disk.AllocatePage();
  Page w;
  w.Zero();
  w.data[0] = 'z';
  w.data[kPageSize - 1] = 'q';
  ASSERT_TRUE(disk.WritePage(pid, w).ok());
  Page r;
  ASSERT_TRUE(disk.ReadPage(pid, &r).ok());
  EXPECT_EQ(r.data[0], 'z');
  EXPECT_EQ(r.data[kPageSize - 1], 'q');
}

TEST(DiskManagerTest, CountsPhysicalIo) {
  DiskManager disk;
  PageId pid = disk.AllocatePage();
  Page p;
  p.Zero();
  EXPECT_EQ(disk.counters().total(), 0u);
  ASSERT_TRUE(disk.WritePage(pid, p).ok());
  ASSERT_TRUE(disk.ReadPage(pid, &p).ok());
  ASSERT_TRUE(disk.ReadPage(pid, &p).ok());
  EXPECT_EQ(disk.counters().writes, 1u);
  EXPECT_EQ(disk.counters().reads, 2u);
  disk.ResetCounters();
  EXPECT_EQ(disk.counters().total(), 0u);
}

TEST(DiskManagerTest, RejectsUnallocatedPage) {
  DiskManager disk;
  Page p;
  EXPECT_TRUE(disk.ReadPage(99, &p).IsIOError());
  EXPECT_TRUE(disk.WritePage(99, p).IsIOError());
}

// Reads and writes take no lock, so they must stay correct while another
// thread grows the volume's directory underneath them: four workers each
// own a quarter of a set of stamped pages and rewrite + re-read them, and
// also read the newest page the moment it is published (it must already
// be the zeroed page AllocatePage built), while one thread allocates pages
// across several new directory leaves.
TEST(DiskManagerTest, ReadsAndWritesRaceGrowth) {
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kStamped = 64;
  constexpr uint32_t kNewLeaves = 3;
  DiskManager disk;
  auto stamp = [](Page* p, PageId pid, uint32_t version) {
    p->Zero();
    std::memcpy(p->data, &pid, sizeof(pid));
    std::memcpy(p->data + kPageSize - sizeof(version), &version,
                sizeof(version));
  };
  auto stamp_of = [](const Page& p, PageId* pid, uint32_t* version) {
    std::memcpy(pid, p.data, sizeof(*pid));
    std::memcpy(version, p.data + kPageSize - sizeof(*version),
                sizeof(*version));
  };
  for (uint32_t i = 0; i < kStamped; ++i) {
    PageId pid = disk.AllocatePage();
    Page p;
    stamp(&p, pid, 0);
    ASSERT_TRUE(disk.WritePage(pid, p).ok());
  }
  const uint64_t first_leaf = (disk.num_pages() - 1) / DiskManager::kPagesPerLeaf;

  std::atomic<bool> growing{true};
  std::atomic<uint32_t> started{0};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> racing_ops{0};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      uint32_t version = 0;
      while (growing.load(std::memory_order_acquire)) {
        ++version;
        for (PageId pid = t; pid < kStamped; pid += kWorkers) {
          Page p;
          stamp(&p, pid, version);
          if (!disk.WritePage(pid, p).ok()) ++bad;
          Page r;
          if (!disk.ReadPage(pid, &r).ok()) ++bad;
          PageId got_pid = kInvalidPageId;
          uint32_t got_version = 0;
          stamp_of(r, &got_pid, &got_version);
          if (got_pid != pid || got_version != version) ++bad;
        }
        // The freshest page: published only after it was zeroed.
        PageId newest = static_cast<PageId>(disk.num_pages() - 1);
        Page fresh;
        if (!disk.ReadPageRaw(newest, &fresh).ok()) ++bad;
        if (newest >= kStamped) {
          static const Page kZero{};
          if (std::memcmp(fresh.data, kZero.data, kPageSize) != 0) ++bad;
        }
        racing_ops.fetch_add(1, std::memory_order_relaxed);
        if (version == 1) started.fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::thread grower([&] {
    // Start growing only once every worker is inside its loop.
    while (started.load(std::memory_order_acquire) < kWorkers) {
      std::this_thread::yield();
    }
    const uint64_t target = (first_leaf + 1 + kNewLeaves) *
                            uint64_t{DiskManager::kPagesPerLeaf};
    while (disk.num_pages() < target) disk.AllocatePage();
    growing.store(false, std::memory_order_release);
  });
  grower.join();
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(racing_ops.load(), 0u);
  // Coverage: the race really spanned directory-leaf allocations.
  const uint64_t last_leaf = (disk.num_pages() - 1) / DiskManager::kPagesPerLeaf;
  EXPECT_GE(last_leaf - first_leaf, 2u);
  // Every stamped page still holds a complete stamp of its own id.
  for (PageId pid = 0; pid < kStamped; ++pid) {
    Page r;
    ASSERT_TRUE(disk.ReadPageRaw(pid, &r).ok());
    PageId got_pid = kInvalidPageId;
    uint32_t got_version = 0;
    stamp_of(r, &got_pid, &got_version);
    EXPECT_EQ(got_pid, pid);
  }
}

TEST(BufferPoolTest, HitCostsNoIo) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  PageGuard g;
  ASSERT_TRUE(pool.NewPage(&g).ok());
  PageId pid = g.page_id();
  g.page()->data[0] = 'a';
  g.Release();
  disk.ResetCounters();
  for (int i = 0; i < 10; ++i) {
    PageGuard h;
    ASSERT_TRUE(pool.FetchPage(pid, &h).ok());
    EXPECT_EQ(h.page()->data[0], 'a');
  }
  EXPECT_EQ(disk.counters().total(), 0u);  // all buffer hits
  EXPECT_EQ(pool.hits(), 10u);
}

TEST(BufferPoolTest, EvictionWritesDirtyAndRereads) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  // Create 3 dirty pages through a capacity-2 pool.
  PageId pids[3];
  for (int i = 0; i < 3; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
    g.page()->data[0] = static_cast<char>('a' + i);
    pids[i] = g.page_id();
  }
  // Page 0 was evicted (written). Fetch it back: one read.
  disk.ResetCounters();
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
  EXPECT_EQ(g.page()->data[0], 'a');
  EXPECT_GE(disk.counters().reads, 1u);
}

TEST(BufferPoolTest, LruEvictsColdestUnpinned) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageGuard a, b;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.NewPage(&b).ok());
  PageId pa = a.page_id(), pb = b.page_id();
  a.Release();
  b.Release();
  // Touch a so b becomes coldest.
  PageGuard t;
  ASSERT_TRUE(pool.FetchPage(pa, &t).ok());
  t.Release();
  // A new page must evict b, not a.
  PageGuard c;
  ASSERT_TRUE(pool.NewPage(&c).ok());
  c.Release();
  disk.ResetCounters();
  PageGuard check;
  ASSERT_TRUE(pool.FetchPage(pa, &check).ok());
  EXPECT_EQ(disk.counters().reads, 0u);  // a stayed resident
  check.Release();
  ASSERT_TRUE(pool.FetchPage(pb, &check).ok());
  EXPECT_EQ(disk.counters().reads, 1u);  // b was evicted
}

TEST(BufferPoolTest, AllPinnedReportsNoSpace) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageGuard a, b, c;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  ASSERT_TRUE(pool.NewPage(&b).ok());
  EXPECT_TRUE(pool.NewPage(&c).IsNoSpace());

  // A demand miss fails the same way and retires its page-table claim:
  // once a pin is released the same fetch succeeds, and another thread's
  // fetch of the page does not sleep on a leaked claim.
  const PageId absent = disk.AllocatePage();
  EXPECT_TRUE(pool.FetchPage(absent, &c).IsNoSpace());
  b.Release();
  std::thread other([&] {
    PageGuard g;
    EXPECT_TRUE(pool.FetchPage(absent, &g).ok());
  });
  ASSERT_TRUE(pool.FetchPage(absent, &c).ok());
  other.join();

  // A staged page whose promotion finds every frame pinned fails the same
  // way and keeps its staged copy; once a pin is released it promotes
  // with no second disk read.
  pool.SetPrefetchEnabled(true);
  const PageId staged = disk.AllocatePage();
  pool.PrefetchHint(&staged, 1);
  ASSERT_EQ(pool.StagedPageIds(), std::vector<PageId>{staged});
  disk.ResetCounters();
  PageGuard d;
  EXPECT_TRUE(pool.FetchPage(staged, &d).IsNoSpace());
  EXPECT_EQ(pool.StagedPageIds(), std::vector<PageId>{staged});
  c.Release();
  ASSERT_TRUE(pool.FetchPage(staged, &d).ok());
  EXPECT_EQ(disk.counters().reads, 0u);
  EXPECT_EQ(pool.prefetch_promoted(), 1u);
  EXPECT_TRUE(pool.StagedPageIds().empty());
}

TEST(BufferPoolTest, FlushAllWritesEveryDirtyFrameOnce) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  for (int i = 0; i < 5; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
    g.page()->data[0] = 'x';
  }
  disk.ResetCounters();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.counters().writes, 5u);
  // Second flush is a no-op: nothing is dirty anymore.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.counters().writes, 5u);
}

TEST(BufferPoolTest, PinnedPagesSurviveEvictionPressure) {
  DiskManager disk;
  BufferPool pool(&disk, 3);
  PageGuard pinned;
  ASSERT_TRUE(pool.NewPage(&pinned).ok());
  pinned.page()->data[7] = 'p';
  // Cycle many pages through the two remaining frames.
  for (int i = 0; i < 20; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
  }
  EXPECT_EQ(pinned.page()->data[7], 'p');
}

TEST(BufferPoolTest, MovedGuardTransfersOwnership) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  PageGuard a;
  ASSERT_TRUE(pool.NewPage(&a).ok());
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
}

}  // namespace
}  // namespace objrep
