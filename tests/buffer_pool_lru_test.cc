// LRU-order oracle for the buffer pool (DESIGN.md §8): drives a real pool
// and a plain list-LRU reference model through the same seeded random
// trace — FetchPage, several FetchPage pins held at once (partial hits,
// duplicate ids, evictions while the step's own pins are held), NewPage,
// MarkDirty, pins held across steps, FreePage — and after every step
// requires the same resident set and the same disk read/write, hit/miss
// and eviction counts. The pool's victim selection is an unsorted
// min-stamp pass over the frames; the model is the textbook move-to-back
// list, so any divergence in victim order shows up as a different
// resident set or write count within a few steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace objrep {
namespace {

// Strict LRU over page ids as a doubly-linked list: a release moves the
// page to the back, the victim is the front-most unpinned page.
class ListLru {
 public:
  explicit ListLru(uint32_t capacity) : capacity_(capacity) {}

  bool Resident(PageId pid) const { return pages_.count(pid) != 0; }

  void Fetch(PageId pid) {
    if (Resident(pid)) {
      ++hits;
      ++pages_[pid].pins;
      return;
    }
    ++misses;
    MakeRoom();
    Load(pid, /*dirty=*/false);
    ++pages_[pid].pins;
    ++reads;
  }

  void New(PageId pid) {
    MakeRoom();
    Load(pid, /*dirty=*/true);
    ++pages_[pid].pins;
  }

  void Release(PageId pid) {
    Entry& e = pages_.at(pid);
    ASSERT_GT(e.pins, 0);
    --e.pins;
    order_.splice(order_.end(), order_, e.pos);
  }

  void MarkDirty(PageId pid) { pages_.at(pid).dirty = true; }

  // FreePage: refused while pinned; a dirty resident page is written back.
  bool Free(PageId pid) {
    auto it = pages_.find(pid);
    if (it == pages_.end()) return true;
    if (it->second.pins > 0) {
      ++refused_frees;
      return false;
    }
    if (it->second.dirty) ++writes;
    order_.erase(it->second.pos);
    pages_.erase(it);
    return true;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t evictions = 0;
  // Trace coverage: pinned frees.
  uint64_t refused_frees = 0;

 private:
  struct Entry {
    int pins = 0;
    bool dirty = false;
    std::list<PageId>::iterator pos;
  };

  // Maps `pid` unpinned at the back; the caller takes the pins.
  void Load(PageId pid, bool dirty) {
    Entry& e = pages_[pid];
    e.pins = 0;
    e.dirty = dirty;
    e.pos = order_.insert(order_.end(), pid);
  }

  // A free frame first; else evict the front-most unpinned page.
  void MakeRoom() {
    if (pages_.size() < capacity_) return;
    auto victim = std::find_if(order_.begin(), order_.end(), [&](PageId p) {
      return pages_.at(p).pins == 0;
    });
    ASSERT_NE(victim, order_.end()) << "trace pinned every frame";
    if (pages_.at(*victim).dirty) ++writes;
    ++evictions;
    pages_.erase(*victim);
    order_.erase(victim);
  }

  uint32_t capacity_;
  std::list<PageId> order_;  // resident pages, least recently released first
  std::unordered_map<PageId, Entry> pages_;
};

struct Held {
  PageId pid;
  PageGuard guard;
};

std::vector<PageId> MakePages(DiskManager* disk, uint32_t n) {
  std::vector<PageId> pids;
  BufferPool loader(disk, 4);
  for (uint32_t i = 0; i < n; ++i) {
    PageGuard g;
    EXPECT_TRUE(loader.NewPage(&g).ok());
    pids.push_back(g.page_id());
  }
  EXPECT_TRUE(loader.FlushAll().ok());
  return pids;
}

// Same resident set (probed with TryFetchResident, which neither counts
// nor restamps) and same counters.
::testing::AssertionResult SameState(BufferPool* pool, const DiskManager& disk,
                                     const ListLru& model,
                                     const std::vector<PageId>& live) {
  for (PageId pid : live) {
    PageGuard g;
    const bool resident = pool->TryFetchResident(pid, &g);
    if (resident != model.Resident(pid)) {
      return ::testing::AssertionFailure()
             << "page " << pid << (resident ? " resident" : " absent")
             << " in the pool but not in the list LRU";
    }
  }
  const IoCounters c = disk.counters();
  if (c.reads != model.reads || c.writes != model.writes ||
      pool->hits() != model.hits || pool->misses() != model.misses ||
      pool->evictions() != model.evictions) {
    return ::testing::AssertionFailure()
           << "pool reads/writes/hits/misses/evictions " << c.reads << "/"
           << c.writes << "/" << pool->hits() << "/" << pool->misses() << "/"
           << pool->evictions() << " vs model " << model.reads << "/"
           << model.writes << "/" << model.hits << "/" << model.misses << "/"
           << model.evictions;
  }
  return ::testing::AssertionSuccess();
}

void RunTrace(uint32_t capacity, uint64_t seed, int steps) {
  DiskManager disk;
  std::vector<PageId> live = MakePages(&disk, capacity * 3);
  disk.ResetCounters();
  BufferPool pool(&disk, capacity);
  ListLru model(capacity);
  Rng rng(seed);
  std::vector<Held> held;
  // Held pins plus one step's distinct pages never exceed capacity, so no
  // step can hit NoSpace and both sides always find a victim.
  const size_t max_held = capacity / 4;
  const size_t max_group = capacity / 2;
  // Trace coverage: fetches that evicted while their step held >= 2 of
  // its own pins.
  uint64_t evictions_under_own_pins = 0;
  // Three in four picks come from a hot prefix a bit smaller than the pool,
  // so hits, restamps and evictions all interleave.
  auto pick = [&]() -> PageId {
    size_t hot = std::min<size_t>(live.size(), capacity * 3 / 4 + 1);
    size_t n = rng.Uniform(4) != 0 ? hot : live.size();
    return live[rng.Uniform(n)];
  };
  // Either keeps the pin across steps or releases it now (restamping).
  auto hold_or_release = [&](PageId pid, PageGuard g) {
    if (held.size() < max_held && rng.Uniform(5) == 0) {
      held.push_back(Held{pid, std::move(g)});
    } else {
      g.Release();
      model.Release(pid);
    }
  };

  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 40) {
      PageId pid = pick();
      PageGuard g;
      ASSERT_TRUE(pool.FetchPage(pid, &g).ok());
      model.Fetch(pid);
      if (rng.Uniform(4) == 0) {
        g.MarkDirty();
        model.MarkDirty(pid);
      }
      hold_or_release(pid, std::move(g));
    } else if (op < 65) {
      // A group of pins held at once and released together: the later
      // fetches evict under the group's earlier pins.
      std::vector<PageId> group(1 + rng.Uniform(max_group));
      std::vector<PageGuard> guards(group.size());
      for (size_t j = 0; j < group.size(); ++j) {
        // Repeat an earlier id now and then: a page pinned twice.
        group[j] = (j > 0 && rng.Uniform(6) == 0) ? group[rng.Uniform(j)]
                                                  : pick();
        const uint64_t evictions = model.evictions;
        ASSERT_TRUE(pool.FetchPage(group[j], &guards[j]).ok());
        model.Fetch(group[j]);
        if (j >= 2 && model.evictions > evictions) ++evictions_under_own_pins;
      }
      if (rng.Uniform(4) == 0) {
        size_t j = rng.Uniform(group.size());
        guards[j].MarkDirty();
        model.MarkDirty(group[j]);
      }
      for (size_t j = 0; j < group.size(); ++j) {
        guards[j].Release();
        model.Release(group[j]);
      }
    } else if (op < 75) {
      PageGuard g;
      ASSERT_TRUE(pool.NewPage(&g).ok());
      PageId pid = g.page_id();
      model.New(pid);
      live.push_back(pid);
      hold_or_release(pid, std::move(g));
    } else if (op < 90) {
      if (!held.empty()) {
        size_t j = rng.Uniform(held.size());
        held[j].guard.Release();
        model.Release(held[j].pid);
        held.erase(held.begin() + j);
      }
    } else if (live.size() > capacity) {
      // One free in four targets a held page, so refusals occur however
      // large the pool (a uniform pick rarely lands on a held pin).
      PageId pid = (!held.empty() && rng.Uniform(4) == 0)
                       ? held[rng.Uniform(held.size())].pid
                       : live[rng.Uniform(live.size())];
      const bool freed = pool.FreePage(pid);
      ASSERT_EQ(freed, model.Free(pid)) << "step " << step;
      if (freed) live.erase(std::find(live.begin(), live.end(), pid));
    }
    ASSERT_TRUE(SameState(&pool, disk, model, live))
        << "capacity " << capacity << " seed " << seed << " step " << step
        << " op " << op;
  }
  // The trace must have exercised what it claims to cover.
  EXPECT_GT(model.evictions, static_cast<uint64_t>(steps) / 4);
  EXPECT_GT(model.writes, 0u);
  EXPECT_GT(evictions_under_own_pins, 0u);
  EXPECT_GT(model.refused_frees, 0u);
}

TEST(BufferPoolLruTest, EightFramesMatchesListLru) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    ASSERT_NO_FATAL_FAILURE(RunTrace(8, seed, 3000));
  }
}

TEST(BufferPoolLruTest, HundredFramesMatchesListLru) {
  for (uint64_t seed : {11, 12, 13}) {
    ASSERT_NO_FATAL_FAILURE(RunTrace(100, seed, 3000));
  }
}

// A pool large enough that a victim pass walks thousands of frames.
TEST(BufferPoolLruTest, FourThousandFramesMatchesListLru) {
  ASSERT_NO_FATAL_FAILURE(RunTrace(4000, 21, 1000));
}

}  // namespace
}  // namespace objrep
