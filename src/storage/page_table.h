// One shard of the buffer pool's page table (DESIGN.md §17).
//
// Maps a page id to the slot that holds it — a pool frame (resident), a
// staging frame (staged read-ahead copy), or nothing yet — and records
// whether a loader has *claimed* the page: a demand miss, a read-ahead
// hint or NewPage whose read (or zeroing) is in flight. Claims live in the
// same entry as the mapping, so one probe under the bucket latch answers
// "resident, staged, claimed, or mine to load". Every mapping is installed
// by publishing a claim, so a mapped slot always holds its page's bytes.
//
// Open addressing with linear probing and backward-shift deletion: no
// per-entry heap node and no tombstones, so a steady stream of misses
// (claim, publish, evict) allocates nothing once the table has grown to
// its working size. The table knows nothing of frames versus staging
// slots; the pool interprets `frame`. Not thread-safe: the owning shard's
// latch guards every call, and an Entry pointer is valid only until the
// next mutating call.
#ifndef OBJREP_STORAGE_PAGE_TABLE_H_
#define OBJREP_STORAGE_PAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/page.h"
#include "util/macros.h"

namespace objrep {

class PageTable {
 public:
  /// `frame` of an entry that carries a claim but no mapping yet.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct Entry {
    PageId pid = kInvalidPageId;  // kInvalidPageId: empty slot
    uint32_t frame = kNoFrame;
    /// 0: unclaimed. Otherwise the token Claim returned — distinct from
    /// the previous claims of the table, so a waiter can tell "the claim
    /// I slept on resolved" from "someone re-claimed the page".
    uint32_t claim = 0;
  };

  PageTable() { Resize(kMinSlots); }

  /// Grows the table so `n` live entries fit without a rehash.
  void Reserve(size_t n) {
    size_t slots = kMinSlots;
    while (n * 2 > slots) slots *= 2;
    if (slots > slots_.size()) Resize(slots);
  }

  /// The entry for `pid`, or nullptr.
  const Entry* Find(PageId pid) const {
    for (size_t i = Home(pid);; i = (i + 1) & mask_) {
      const Entry& e = slots_[i];
      if (e.pid == pid) return &e;
      if (e.pid == kInvalidPageId) return nullptr;
    }
  }

  /// Removes `pid`'s mapping if it is `frame`: the entry goes, unless it
  /// is claimed, in which case only the claim remains. Returns true if the
  /// mapping was removed.
  bool Unmap(PageId pid, uint32_t frame) {
    Entry* e = FindMutable(pid);
    if (e == nullptr || e->frame != frame || frame == kNoFrame) return false;
    if (e->claim != 0) {
      e->frame = kNoFrame;
    } else {
      EraseAt(static_cast<size_t>(e - slots_.data()));
    }
    return true;
  }

  /// Claims `pid` for one loader, inserting the entry if absent (a staged
  /// mapping is kept). The page must not be claimed. Returns the token.
  uint32_t Claim(PageId pid) {
    Entry& e = FindOrInsert(pid);
    OBJREP_CHECK_MSG(e.claim == 0, "page already claimed");
    if (++last_claim_ == 0) ++last_claim_;
    e.claim = last_claim_;
    return e.claim;
  }

  /// Maps the claimed `pid` to `frame` and retires its claim in one step.
  /// Returns the frame replaced (kNoFrame if none).
  uint32_t Publish(PageId pid, uint32_t frame) {
    Entry* e = FindMutable(pid);
    OBJREP_CHECK_MSG(e != nullptr && e->claim != 0, "publish without claim");
    uint32_t old = e->frame;
    e->frame = frame;
    e->claim = 0;
    return old;
  }

  /// Retires `pid`'s claim without publishing: the entry keeps a mapping
  /// it still has, and is removed otherwise.
  void Unclaim(PageId pid) {
    Entry* e = FindMutable(pid);
    OBJREP_CHECK_MSG(e != nullptr && e->claim != 0, "unclaim without claim");
    e->claim = 0;
    if (e->frame == kNoFrame) EraseAt(static_cast<size_t>(e - slots_.data()));
  }

  /// Calls fn(const Entry&) for every live entry. `fn` must not mutate the
  /// table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : slots_) {
      if (e.pid != kInvalidPageId) fn(e);
    }
  }

  size_t size() const { return size_; }
  size_t num_slots() const { return slots_.size(); }

 private:
  static constexpr size_t kMinSlots = 16;

  size_t Home(PageId pid) const {
    // Fibonacci hashing: the top bits of the golden-ratio product. The
    // pool's shard choice uses low product bits of a different multiplier,
    // so sequential ids spread across the slots of one shard too.
    return static_cast<size_t>(
        (static_cast<uint64_t>(pid) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  Entry* FindMutable(PageId pid) {
    return const_cast<Entry*>(static_cast<const PageTable*>(this)->Find(pid));
  }

  Entry& FindOrInsert(PageId pid) {
    OBJREP_CHECK(pid != kInvalidPageId);
    // Keep the load factor at or below 1/2: probe runs stay short.
    if ((size_ + 1) * 2 > slots_.size()) Resize(slots_.size() * 2);
    size_t i = Home(pid);
    for (; slots_[i].pid != kInvalidPageId; i = (i + 1) & mask_) {
      if (slots_[i].pid == pid) return slots_[i];
    }
    slots_[i] = Entry{pid, kNoFrame, 0};
    ++size_;
    return slots_[i];
  }

  /// Backward-shift deletion: pulls each later member of the probe run
  /// into the hole unless its home lies cyclically in (hole, member], so
  /// the run never needs a tombstone.
  void EraseAt(size_t hole) {
    for (size_t j = (hole + 1) & mask_; slots_[j].pid != kInvalidPageId;
         j = (j + 1) & mask_) {
      size_t home = Home(slots_[j].pid);
      bool stays = hole <= j ? (hole < home && home <= j)
                             : (hole < home || home <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Entry{};
    --size_;
  }

  void Resize(size_t slots) {
    std::vector<Entry> old;
    old.swap(slots_);
    slots_.assign(slots, Entry{});
    mask_ = slots - 1;
    shift_ = 64;
    for (size_t s = slots; s > 1; s >>= 1) --shift_;
    size_ = 0;
    for (const Entry& e : old) {
      if (e.pid == kInvalidPageId) continue;
      size_t i = Home(e.pid);
      while (slots_[i].pid != kInvalidPageId) i = (i + 1) & mask_;
      slots_[i] = e;
      ++size_;
    }
  }

  std::vector<Entry> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  size_t size_ = 0;
  uint32_t last_claim_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_STORAGE_PAGE_TABLE_H_
