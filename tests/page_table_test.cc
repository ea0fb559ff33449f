// The buffer pool's page table (storage/page_table.h): a seeded model test
// against std::unordered_map, and the allocation-free miss path it exists
// for — this binary counts every operator new, so it can assert that a
// warmed-up pool serves single-page misses without touching the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_table.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
// Out of line, so the compiler never pairs an inlined free() with the
// operator new that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void CountedFree(void* p) { std::free(p); }
void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = CountedAlignedAlloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace objrep {
namespace {

struct ModelEntry {
  uint32_t frame = PageTable::kNoFrame;
  bool claimed = false;
};
using Model = std::unordered_map<PageId, ModelEntry>;

void ExpectSame(const PageTable& table, const Model& model) {
  ASSERT_EQ(table.size(), model.size());
  size_t seen = 0;
  table.ForEach([&](const PageTable::Entry& e) {
    ++seen;
    auto it = model.find(e.pid);
    ASSERT_NE(it, model.end()) << "pid " << e.pid;
    EXPECT_EQ(e.frame, it->second.frame) << "pid " << e.pid;
    EXPECT_EQ(e.claim != 0, it->second.claimed) << "pid " << e.pid;
  });
  EXPECT_EQ(seen, model.size());
  for (const auto& [pid, m] : model) {
    const PageTable::Entry* e = table.Find(pid);
    ASSERT_NE(e, nullptr) << "pid " << pid;
    EXPECT_EQ(e->frame, m.frame);
  }
}

TEST(PageTableTest, ClaimOnStagedEntryKeepsTheMapping) {
  PageTable t;
  constexpr uint32_t kStaged = 1000;  // any slot value: the table is agnostic
  // A hint claims the page, reads it, and publishes the staged copy.
  const uint32_t hint = t.Claim(7);
  EXPECT_EQ(t.Publish(7, kStaged), PageTable::kNoFrame);
  const uint32_t token = t.Claim(7);
  EXPECT_NE(token, 0u);
  EXPECT_NE(token, hint);
  EXPECT_EQ(t.Find(7)->frame, kStaged);
  EXPECT_EQ(t.Find(7)->claim, token);
  // Unmapping the staged copy under the claim keeps the claim.
  EXPECT_TRUE(t.Unmap(7, kStaged));
  ASSERT_NE(t.Find(7), nullptr);
  EXPECT_EQ(t.Find(7)->frame, PageTable::kNoFrame);
  // Publication maps the frame and retires the claim in one step.
  EXPECT_EQ(t.Publish(7, 3), PageTable::kNoFrame);
  EXPECT_EQ(t.Find(7)->frame, 3u);
  EXPECT_EQ(t.Find(7)->claim, 0u);
  // A re-claim after eviction gets a fresh token.
  EXPECT_TRUE(t.Unmap(7, 3));
  EXPECT_EQ(t.Find(7), nullptr);
  EXPECT_NE(t.Claim(7), token);
  t.Unclaim(7);
  EXPECT_EQ(t.Find(7), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

// Random claim / publish / unclaim / unmap traffic against an
// unordered_map model. Phase 1 keeps ~40 live ids in a small id space
// (long probe runs, many backward shifts, wrap-around); phase 2 churns a
// sliding window of 400 ids, which forces the table to grow.
TEST(PageTableTest, MatchesUnorderedMapModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    PageTable table;
    Model model;
    std::unordered_set<uint32_t> tokens;
    const size_t initial_slots = table.num_slots();
    uint64_t claims_on_staged = 0;
    auto step = [&](PageId pid) {
      ModelEntry* m = model.count(pid) ? &model[pid] : nullptr;
      const uint32_t frame = static_cast<uint32_t>(rng.Uniform(200));
      switch (rng.Uniform(4)) {
        case 0:  // claim
          if (m != nullptr && m->claimed) break;
          if (m != nullptr && m->frame != PageTable::kNoFrame) {
            ++claims_on_staged;
          }
          EXPECT_TRUE(tokens.insert(table.Claim(pid)).second);
          model[pid].claimed = true;
          break;
        case 1:  // publish
          if (m == nullptr || !m->claimed) break;
          EXPECT_EQ(table.Publish(pid, frame), m->frame);
          *m = ModelEntry{frame, false};
          break;
        case 2:  // unclaim (failed load)
          if (m == nullptr || !m->claimed) break;
          table.Unclaim(pid);
          m->claimed = false;
          if (m->frame == PageTable::kNoFrame) model.erase(pid);
          break;
        case 3: {  // unmap: the current frame, or a stale one
          const uint32_t victim =
              (m != nullptr && rng.Uniform(4) != 0) ? m->frame : frame;
          const bool hit = m != nullptr && m->frame == victim &&
                           victim != PageTable::kNoFrame;
          EXPECT_EQ(table.Unmap(pid, victim), hit);
          if (hit) {
            if (m->claimed) {
              m->frame = PageTable::kNoFrame;
            } else {
              model.erase(pid);
            }
          }
          break;
        }
      }
      const PageTable::Entry* e = table.Find(pid);
      auto it = model.find(pid);
      ASSERT_EQ(e != nullptr, it != model.end());
      if (e != nullptr) {
        EXPECT_EQ(e->frame, it->second.frame);
        EXPECT_EQ(e->claim != 0, it->second.claimed);
      }
    };
    for (int i = 0; i < 20000; ++i) {
      step(static_cast<PageId>(rng.Uniform(48)));
      if (i % 1000 == 0) ExpectSame(table, model);
    }
    ExpectSame(table, model);
    for (int i = 0; i < 60000; ++i) {
      const PageId base = static_cast<PageId>(i / 20);
      step(base + static_cast<PageId>(rng.Uniform(400)));
      if (i % 5000 == 0) ExpectSame(table, model);
    }
    ExpectSame(table, model);
    EXPECT_GT(table.num_slots(), initial_slots) << "churn never rehashed";
    EXPECT_GT(claims_on_staged, 0u);
  }
}

// The point of the table: after warm-up a single-page miss — claim, victim
// eviction, device read, publication — performs no heap allocation.
TEST(PageTableTest, WarmPoolMissesAllocateNothing) {
  DiskManager disk;
  std::vector<PageId> pids;
  {
    BufferPool loader(&disk, 16);
    for (uint32_t i = 0; i < 1000; ++i) {
      PageGuard g;
      ASSERT_TRUE(loader.NewPage(&g).ok());
      pids.push_back(g.page_id());
    }
    ASSERT_TRUE(loader.FlushAll().ok());
  }
  BufferPool pool(&disk, 100);
  uint64_t failures = 0;
  auto fetch = [&](size_t i) {
    PageGuard g;
    if (!pool.FetchPage(pids[i % pids.size()], &g).ok()) ++failures;
  };
  for (size_t i = 0; i < 2000; ++i) fetch(i);  // warm-up
  const uint64_t misses_before = pool.misses();
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  for (size_t i = 2000; i < 12000; ++i) fetch(i);
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) -
                          allocs_before;
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(pool.misses() - misses_before, 10000u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace objrep
