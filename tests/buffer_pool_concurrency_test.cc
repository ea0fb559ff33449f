// Concurrent demand-miss tests (DESIGN.md §17): miss coalescing via the
// per-shard in-flight table, clean failure propagation to coalesced
// waiters, pool-stats-vs-disk-counters accounting under races, demand
// misses and recycled page ids waiting out another thread's read-ahead
// claim, and stale-read protection during out-of-latch dirty write-back.
// The CI TSan job runs this binary directly.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injector.h"

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

// Finds a seed whose read-fault stream fails the first roll and passes the
// next `ok_after` rolls at `rate` — probed on a standalone injector so the
// test's fault sequence is deterministic by construction, not by luck.
uint64_t ProbeSeedFirstReadFails(double rate, int ok_after) {
  for (uint64_t seed = 1; seed < 10000; ++seed) {
    FaultInjector probe;
    probe.Configure(seed, rate, 0.0);
    if (probe.OnRead(1).ok()) continue;
    bool rest_ok = true;
    for (int i = 0; i < ok_after; ++i) {
      if (!probe.OnRead(1).ok()) {
        rest_ok = false;
        break;
      }
    }
    if (rest_ok) return seed;
  }
  ADD_FAILURE() << "no qualifying fault seed below 10000";
  return 0;
}

// An 8-thread cold storm on one page issues exactly one physical read: the
// first misser claims the page in the in-flight table, everyone else
// either coalesces on that read or hits the published frame.
TEST(MissCoalescingTest, ColdStormIssuesExactlyOneRead) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 1);
  BufferPool pool(&disk, 4);
  disk.ResetCounters();
  disk.set_transfer_us(2000);  // widen the in-flight window
  constexpr int kThreads = 8;
  std::barrier sync(kThreads);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sync.arrive_and_wait();
      PageGuard g;
      if (!pool.FetchPage(pids[0], &g).ok() || g.page()->data[0] != 'a') {
        bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(disk.counters().reads, 1u);
  EXPECT_EQ(pool.hits() + pool.misses(), 8u);
  EXPECT_GE(pool.misses(), 1u);
  // Every miss beyond the one that read coalesced onto it.
  EXPECT_EQ(pool.coalesced_misses(), pool.misses() - 1);
}

// A failed coalesced read fails cleanly: with every read faulting, each
// storm thread eventually becomes the loader, observes its own error, and
// no mapping is left poisoned — clearing the faults makes the next fetch
// succeed with the real bytes.
TEST(MissCoalescingTest, FailedReadFailsAllWaitersCleanly) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 1);
  BufferPool pool(&disk, 4);
  disk.fault_injector()->Configure(7, /*read=*/1.0, /*write=*/0.0);
  disk.ResetCounters();
  constexpr int kThreads = 8;
  std::barrier sync(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sync.arrive_and_wait();
      PageGuard g;
      if (!pool.FetchPage(pids[0], &g).ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(disk.counters().reads, 0u);  // failed reads are never counted
  // No poisoned state: the page is neither resident nor claimed, and a
  // fault-free fetch loads it normally.
  disk.fault_injector()->Reset();
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
  EXPECT_EQ(g.page()->data[0], 'a');
  EXPECT_EQ(disk.counters().reads, 1u);
}

// The read-failure storm with one injected fault: the loader that rolled
// the failing trial propagates the error; exactly one waiter re-issues the
// read (the rest coalesce on the retry), so the storm sees one failure,
// seven successes, and two rolls total.
TEST(MissCoalescingTest, ReadFailureRetriesExactlyOnce) {
  uint64_t seed = ProbeSeedFirstReadFails(0.5, /*ok_after=*/8);
  ASSERT_NE(seed, 0u);
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 1);
  BufferPool pool(&disk, 4);
  disk.fault_injector()->Configure(seed, 0.5, 0.0);
  disk.ResetCounters();
  disk.set_transfer_us(1000);
  constexpr int kThreads = 8;
  std::barrier sync(kThreads);
  std::atomic<int> failures{0};
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      sync.arrive_and_wait();
      PageGuard g;
      Status s = pool.FetchPage(pids[0], &g);
      if (!s.ok()) {
        failures.fetch_add(1);
      } else if (g.page()->data[0] != 'a') {
        bad.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 1);  // only the loser of the first roll
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(disk.fault_injector()->injected_read_faults(), 1u);
  EXPECT_EQ(disk.counters().reads, 1u);  // the one successful retry
}

// Satellite regression (miss-accounting drift): under a multi-threaded
// random workload, pool stats stay pinned to the disk's flat counters —
// misses that lost a load race are the coalesced ones, so
//   misses == disk reads + coalesced_misses
// holds exactly once quiescent (no prefetch, read-only).
TEST(MissCoalescingTest, PoolStatsPinnedToIoCounters) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 48);
  BufferPool pool(&disk, 16);
  disk.ResetCounters();
  constexpr int kThreads = 6;
  std::barrier sync(kThreads);
  std::atomic<int> bad{0};
  std::atomic<uint64_t> accesses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      unsigned seed = 97u * (t + 1);
      sync.arrive_and_wait();
      for (int iter = 0; iter < 300; ++iter) {
        seed = seed * 1664525u + 1013904223u;
        size_t at = seed % (pids.size() - 4);
        if (iter % 3 == 0) {
          // Three pins held at once, one page twice: the second fetch of
          // pids[at] is a hit on this thread's own pinned frame.
          PageId group[] = {pids[at], pids[at + 1], pids[at]};
          PageGuard guards[3];
          for (int j = 0; j < 3; ++j) {
            if (!pool.FetchPage(group[j], &guards[j]).ok()) bad.fetch_add(1);
          }
          accesses.fetch_add(3);
        } else {
          PageGuard g;
          if (!pool.FetchPage(pids[at], &g).ok()) bad.fetch_add(1);
          accesses.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.hits() + pool.misses(), accesses.load());
  EXPECT_EQ(pool.misses(), disk.counters().reads + pool.coalesced_misses());
}

// A demand fetch of a page whose read-ahead, hinted by another thread, is
// stalled in the device sleeps on the hint's page-table claim — the same
// wait as on a demand loader's claim — then wakes when the staged copy is
// published and promotes it: one physical read.
TEST(StagingWaitTest, DemandMissSleepsOnInFlightHintClaim) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 2);
  BufferPool pool(&disk, 4);
  pool.SetPrefetchEnabled(true);
  disk.ResetCounters();
  disk.set_transfer_us(30000);  // stall the hint read in the device
  std::jthread hinter([&] { pool.PrefetchHint(&pids[0], 1); });
  // ReadPages counts the read before its device sleep, while the hint
  // still holds its claim; the staged mapping only appears after the 30ms
  // stall, so the fetch below finds the claim and sleeps on it.
  while (disk.counters().reads == 0) std::this_thread::yield();
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
  hinter.join();
  EXPECT_EQ(g.page()->data[0], 'a');
  EXPECT_GE(pool.inflight_waits(), 1u);
  EXPECT_EQ(disk.counters().reads, 1u);  // the hint's read, promoted
  EXPECT_EQ(pool.prefetch_promoted(), 1u);
}

// A hint read that *fails* under the injector returns its staging frame
// (counted as wasted) and leaves no mapping behind; a concurrent demand
// fetch of that page recovers with its own clean read.
TEST(StagingWaitTest, FailedHintReadRetiresStagingAndDemandRecovers) {
  uint64_t seed = ProbeSeedFirstReadFails(0.5, /*ok_after=*/2);
  ASSERT_NE(seed, 0u);
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 2);
  BufferPool pool(&disk, 4);
  pool.SetPrefetchEnabled(true);
  disk.fault_injector()->Configure(seed, 0.5, 0.0);
  disk.ResetCounters();
  std::jthread hinter([&] { pool.PrefetchHint(&pids[0], 1); });
  // The hinter's read must roll (and lose) the injector's first trial.
  // Waiting on that orders the demand fetch strictly after the failed
  // hint read: the fetch either sleeps on the hint's claim until it is
  // retired or finds the page absent, and its own read rolls the second,
  // passing trial.
  while (disk.fault_injector()->injected_read_faults() == 0) {
    std::this_thread::yield();
  }
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
  hinter.join();
  EXPECT_EQ(g.page()->data[0], 'a');
  EXPECT_EQ(disk.fault_injector()->injected_read_faults(), 1u);
  EXPECT_EQ(disk.counters().reads, 1u);  // the demand fallback's read
  EXPECT_EQ(pool.prefetch_wasted(), 1u);
  EXPECT_TRUE(pool.StagedPageIds().empty());
}

// A freed page id that another thread's hint is still reading must not
// serve the hint's stale image once NewPage recycles the id: NewPage waits
// out the hint's claim and publishes its zeroed frame over the staged
// copy.
TEST(StagingWaitTest, RecycledPageIdNeverServesStaleHintImage) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  pool.SetPrefetchEnabled(true);
  PageId pid;
  {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
    g.page()->data[0] = 'O';
    pid = g.page_id();
  }
  ASSERT_TRUE(pool.FreePage(pid));  // writes 'O' back, frees the id
  disk.ResetCounters();
  disk.set_transfer_us(30000);  // the hint's read of 'O' stalls
  std::jthread hinter([&] { pool.PrefetchHint(&pid, 1); });
  while (disk.counters().reads == 0) std::this_thread::yield();
  {
    PageGuard g;
    ASSERT_TRUE(pool.NewPage(&g).ok());
    ASSERT_EQ(g.page_id(), pid);  // recycled
    g.page()->data[0] = 'N';
  }
  hinter.join();
  EXPECT_EQ(pool.prefetched_pages(), 1u);
  disk.set_transfer_us(0);
  PageGuard g;
  ASSERT_TRUE(pool.FetchPage(pid, &g).ok());
  EXPECT_EQ(g.page()->data[0], 'N');
}

// Stale-read protection: while a dirty victim's write-back is in flight
// outside evict_mu_, a concurrent reader of that page must wait for the
// write (the mapping stays in place, the claim blocks pinning) rather
// than load the stale on-disk image.
TEST(DirtyWriteBackTest, ConcurrentReaderNeverSeesStaleBytes) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 8);
  for (int round = 0; round < 10; ++round) {
    BufferPool pool(&disk, 2);
    {
      PageGuard g;
      ASSERT_TRUE(pool.FetchPage(pids[0], &g).ok());
      g.page()->data[0] = 'Z';
      g.MarkDirty();
    }
    disk.set_transfer_us(5000);  // slow the write-back window
    std::barrier sync(2);
    std::atomic<bool> bad{false};
    std::thread evictor([&] {
      sync.arrive_and_wait();
      // Two misses through a 2-frame pool force pids[0] out (dirty).
      for (int i = 1; i <= 2; ++i) {
        PageGuard g;
        if (!pool.FetchPage(pids[i], &g).ok()) bad.store(true);
      }
    });
    std::thread reader([&] {
      sync.arrive_and_wait();
      PageGuard g;
      if (!pool.FetchPage(pids[0], &g).ok() || g.page()->data[0] != 'Z') {
        bad.store(true);
      }
    });
    evictor.join();
    reader.join();
    disk.set_transfer_us(0);
    EXPECT_FALSE(bad.load()) << "round " << round;
    // The committed value must also be on disk once the pool drains.
    ASSERT_TRUE(pool.FlushAll().ok());
    Page check;
    ASSERT_TRUE(disk.ReadPageRaw(pids[0], &check).ok());
    EXPECT_EQ(check.data[0], 'Z');
    // Restore for the next round.
    Page orig = check;
    orig.data[0] = 'a';
    disk.WritePageRaw(pids[0], orig);
  }
}

// The serialized A/B baseline knob must not change results, only timing:
// same reads, same contents with the §17 path disabled.
TEST(MissCoalescingTest, SerializedModeStaysCorrect) {
  DiskManager disk;
  std::vector<PageId> pids = MakePages(&disk, 16);
  BufferPool pool(&disk, 8);
  pool.SetSerializeMissIo(true);
  disk.ResetCounters();
  constexpr int kThreads = 4;
  std::barrier sync(kThreads);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      unsigned seed = 31u * (t + 1);
      sync.arrive_and_wait();
      for (int iter = 0; iter < 200; ++iter) {
        seed = seed * 1664525u + 1013904223u;
        size_t at = seed % pids.size();
        PageGuard g;
        if (!pool.FetchPage(pids[at], &g).ok() ||
            g.page()->data[0] != static_cast<char>('a' + at % 26)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pool.misses(), disk.counters().reads + pool.coalesced_misses());
}

}  // namespace
}  // namespace objrep
