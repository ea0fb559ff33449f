#include "storage/buffer_pool.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "storage/wal.h"
#include "util/macros.h"

namespace objrep {

BufferPool::BufferPool(DiskManager* disk, uint32_t capacity)
    : disk_(disk), capacity_(capacity), frames_(capacity) {
  OBJREP_CHECK(capacity > 0);
  free_frames_.reserve(capacity);
  for (uint32_t i = 0; i < capacity; ++i) {
    free_frames_.push_back(capacity - 1 - i);
  }
  // Size every shard for its share of the pool up front, so the page
  // tables do not grow while the first misses fill the frames.
  for (Shard& shard : shards_) shard.table.Reserve(capacity / kNumShards + 8);
}

void BufferPool::SetPrefetchEnabled(bool enabled) {
  if (staging_count_ > 0) DropStagedPages();
  prefetch_enabled_ = enabled;
  staging_count_ = enabled ? kReadaheadPages * kStagingPerWindow : 0;
  staging_.reset();
  free_staging_.clear();
  if (staging_count_ > 0) {
    staging_ = std::make_unique<Page[]>(staging_count_);
    free_staging_.reserve(staging_count_);
    for (uint32_t i = 0; i < staging_count_; ++i) {
      free_staging_.push_back(staging_count_ - 1 - i);
    }
  }
}

void BufferPool::ReleaseStagingFrame(uint32_t st_idx) {
  std::lock_guard<std::mutex> l(staging_mu_);
  free_staging_.push_back(st_idx);
}

std::vector<PageId> BufferPool::StagedPageIds() {
  std::vector<PageId> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> l(shard.mu);
    shard.table.ForEach([&](const PageTable::Entry& e) {
      if (IsStaged(e.frame)) out.push_back(e.pid);
    });
  }
  return out;
}

void BufferPool::DropStagedPages() {
  // Quiescent: no hint holds a claim, and a staged mapping is published
  // only after its bytes land, so every staging frame is free to reuse.
  std::vector<std::pair<PageId, uint32_t>> dropped;  // (pid, slot)
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> l(shard.mu);
    const size_t first = dropped.size();
    shard.table.ForEach([&](const PageTable::Entry& e) {
      if (IsStaged(e.frame)) dropped.emplace_back(e.pid, e.frame);
    });
    for (size_t j = first; j < dropped.size(); ++j) {
      shard.table.Unmap(dropped[j].first, dropped[j].second);
    }
  }
  for (const auto& [pid, slot] : dropped) ReleaseStagingFrame(slot - capacity_);
  prefetch_wasted_.Add(dropped.size());
}

void BufferPool::Unpin(uint32_t frame, bool restamp) {
  Frame& f = frames_[frame];
  // Stamp while the pin is still held: once pin_count reaches 0 an evictor
  // may claim and reuse the frame, so the stamp must land first. Nested
  // pins overwrite each other; the final (1 -> 0) unpin writes last, which
  // is exactly the old push-to-LRU-on-last-release order. No-restamp
  // releases (TryFetchResident) leave the recency untouched.
  if (restamp) {
    f.last_unpin.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  }
  int prev = f.pin_count.fetch_sub(1, std::memory_order_release);
  OBJREP_CHECK(prev > 0);
}

Status BufferPool::ReclaimFrame(std::unique_lock<std::mutex>& lk,
                                uint32_t frame) {
  Frame& f = frames_[frame];
  // Write back *before* unmapping, while the frame is still intact: if the
  // device fails the write (fault injection makes that path real), restore
  // the claim and leave the page resident + dirty, so an eviction can never
  // silently drop committed bytes. Hit-path waiters that saw the kEvicting
  // claim spin without the bucket latch, so they cannot block the unmap and
  // simply re-probe once the claim resolves either way.
  if (f.dirty.load(std::memory_order_relaxed)) {
    // Attribute the deferred write-back to the component that dirtied the
    // page (temp append, cache install, update...), not to whatever query
    // happened to trigger this reclaim.
    ScopedIoTag tag(f.dirty_tag.load(std::memory_order_relaxed));
    // The kEvicting claim already makes the frame invisible to other
    // evictors and un-pinnable, and the mapping left in place keeps
    // readers of the victim page spinning instead of loading a stale image
    // from disk — so the device write itself needs no pool latch. Release
    // evict_mu_ around it (§17) so concurrent misses keep flowing while
    // the write-back sleeps in the simulated device.
    const bool drop_latch =
        !serialize_miss_io_.load(std::memory_order_relaxed);
    if (drop_latch) lk.unlock();
    Status s = disk_->WritePage(f.pid, f.page);
    if (drop_latch) lk.lock();
    if (!s.ok()) {
      f.pin_count.store(0, std::memory_order_release);  // un-claim; intact
      return s;
    }
    f.dirty.store(false, std::memory_order_relaxed);
    eviction_writes_.Add(1);
  }
  // Unmap: after the erase no hit path can reach the frame, so the claimed
  // pin_count can be dropped without a window for false pins. Erase only
  // this frame's own mapping — after a page id was freed and reallocated,
  // a stale frame can coexist briefly with the id's live mapping, and
  // reclaiming the stale one must not unmap the live one.
  {
    Shard& shard = ShardFor(f.pid);
    std::lock_guard<std::mutex> l(shard.mu);
    shard.table.Unmap(f.pid, frame);
  }
  f.in_use = false;
  f.pid = kInvalidPageId;
  f.pin_count.store(0, std::memory_order_release);
  return Status::OK();
}

Status BufferPool::AllocateFrame(std::unique_lock<std::mutex>& lk,
                                 uint32_t* frame_out) {
  if (!free_frames_.empty()) {
    *frame_out = free_frames_.back();
    free_frames_.pop_back();
    return Status::OK();
  }
  // One pass, no sort, no allocation: the victim is the smallest
  // (last_unpin, frame) pair among the unpinned in-use frames. `floor` is
  // the last pair tried: a frame whose kEvicting CAS fails (a racing pin)
  // is skipped by the next pass, and once nothing above the floor remains
  // the floor resets for a fresh pass.
  using Candidate = std::pair<uint64_t, uint32_t>;  // (last_unpin, frame)
  constexpr Candidate kNoFloor{0, UINT32_MAX};
  Candidate floor = kNoFloor;
  for (;;) {
    bool any = false;
    Candidate best{UINT64_MAX, UINT32_MAX};
    for (uint32_t i = 0; i < capacity_; ++i) {
      const Frame& f = frames_[i];
      if (!f.in_use || f.pin_count.load(std::memory_order_relaxed) != 0) {
        continue;
      }
      any = true;
      const Candidate c{f.last_unpin.load(std::memory_order_relaxed), i};
      if (floor != kNoFloor && c <= floor) continue;  // already tried
      if (c < best) best = c;
    }
    if (!any) {
      return Status::NoSpace("buffer pool exhausted: all frames pinned");
    }
    if (best.second == UINT32_MAX) {
      floor = kNoFloor;  // every candidate raced a pin: rescan
      continue;
    }
    floor = best;
    const uint32_t victim = best.second;
    int expected = 0;
    if (!frames_[victim].pin_count.compare_exchange_strong(
            expected, kEvicting, std::memory_order_acquire)) {
      continue;  // raced with a concurrent pin: try the next-oldest
    }
    // A failed write-back leaves the victim resident and dirty.
    OBJREP_RETURN_NOT_OK(ReclaimFrame(lk, victim));
    evictions_.Add(1);
    *frame_out = victim;
    return Status::OK();
  }
}

void BufferPool::AbandonFrameLocked(uint32_t frame) {
  Frame& f = frames_[frame];
  f.in_use = false;
  f.pid = kInvalidPageId;
  f.dirty.store(false, std::memory_order_relaxed);
  f.pin_count.store(0, std::memory_order_relaxed);
  free_frames_.push_back(frame);
}

Status BufferPool::PromoteStaged(std::unique_lock<std::mutex>& lk,
                                 uint32_t st_idx, PageId pid, PageGuard* out) {
  // The victim is chosen here, at first demand access — the same frame, at
  // the same moment, that the demand-paged run's miss would evict. The
  // staged bytes substitute for the disk read, which already happened (and
  // was already counted) at hint time. This is what keeps every I/O count
  // bit-identical to running with prefetch off (DESIGN.md §9).
  uint32_t frame;
  OBJREP_RETURN_NOT_OK(AllocateFrame(lk, &frame));
  Frame& f = frames_[frame];
  f.page = staging_[st_idx];
  f.pid = pid;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.in_use = true;
  PublishClaimed(pid, frame);  // replaces the staged mapping
  ReleaseStagingFrame(st_idx);
  prefetch_promoted_.Add(1);
  *out = PageGuard(this, frame, pid);
  return Status::OK();
}

uint32_t BufferPool::PublishClaimed(PageId pid, uint32_t frame) {
  Shard& shard = ShardFor(pid);
  uint32_t replaced = PageTable::kNoFrame;
  bool wake = false;
  {
    std::lock_guard<std::mutex> l(shard.mu);
    replaced = shard.table.Publish(pid, frame);
    wake = shard.waiters != 0;
  }
  // A misser that went to sleep on this claim did so under shard.mu, so it
  // was counted in `waiters` before the publication above.
  if (wake) shard.cv.notify_all();
  return IsStaged(replaced) ? replaced - capacity_ : UINT32_MAX;
}

void BufferPool::RetireClaim(PageId pid) {
  Shard& shard = ShardFor(pid);
  bool wake = false;
  {
    std::lock_guard<std::mutex> l(shard.mu);
    shard.table.Unclaim(pid);
    wake = shard.waiters != 0;
  }
  if (wake) shard.cv.notify_all();
}

const PageTable::Entry* BufferPool::AwaitUnclaimed(
    Shard& shard, std::unique_lock<std::mutex>& l, PageId pid) {
  for (;;) {
    const PageTable::Entry* e = shard.table.Find(pid);
    if (e == nullptr || e->claim == 0) return e;
    // Another thread's read of `pid` (a demand miss or a read-ahead hint)
    // is in flight: sleep until that claim resolves instead of issuing a
    // duplicate read. The wait tests the claim's token, so a claim taken
    // again before we wake is waited out as a new one.
    inflight_waits_.Add(1);
    const uint32_t theirs = e->claim;
    ++shard.waiters;
    shard.cv.wait(l, [&] {
      const PageTable::Entry* c = shard.table.Find(pid);
      return c == nullptr || c->claim != theirs;
    });
    --shard.waiters;
  }
}

Status BufferPool::LoadPageMiss(PageId pid, PageGuard* out) {
  Shard& shard = ShardFor(pid);
  uint32_t staged = UINT32_MAX;
  for (;;) {
    std::unique_lock<std::mutex> l(shard.mu);
    // A claim that resolved successfully left a mapping: a frame pinned
    // below (a coalesced miss) or a hint's staged copy to promote. A failed
    // one left neither, so exactly one waiter becomes the new loader and
    // the rest coalesce on *its* claim.
    const PageTable::Entry* e = AwaitUnclaimed(shard, l, pid);
    if (e != nullptr && e->frame < capacity_) {
      const uint32_t frame = e->frame;
      if (TryPin(frame)) {
        // A concurrent loader won the race after our hit probe missed:
        // the miss is already counted, but the physical read was theirs —
        // a coalesced miss, not a second read.
        coalesced_misses_.Add(1);
        *out = PageGuard(this, frame, pid);
        return Status::OK();
      }
      // Claimed mid-eviction; re-probe once the evictor unmaps it.
      l.unlock();
      std::this_thread::yield();
      continue;
    }
    // Absent or staged: the miss is ours to load.
    if (e != nullptr) staged = e->frame - capacity_;
    shard.table.Claim(pid);
    break;
  }
  Status s = LoadClaimedPage(pid, staged, out);
  // On success the publication retired the claim; a failed load leaves
  // neither mapping nor claim, so a prober sees the mapping, the claim,
  // or — only once the read truly failed — neither.
  if (!s.ok()) RetireClaim(pid);
  return s;
}

Status BufferPool::LoadClaimedPage(PageId pid, uint32_t staged,
                                   PageGuard* out) {
  std::unique_lock<std::mutex> big(evict_mu_);
  // Our claim keeps a staged copy mapped, and its bytes landed before it
  // was published: promote it.
  if (staged != UINT32_MAX) return PromoteStaged(big, staged, pid, out);
  uint32_t frame;
  OBJREP_RETURN_NOT_OK(AllocateFrame(big, &frame));
  Frame& f = frames_[frame];
  f.pid = pid;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.in_use = true;
  // The claim keeps the frame private (unmapped, and same-page missers
  // sleep on the claim), so the read itself needs no pool latch — this is
  // the §17 fix: concurrent misses overlap their device time instead of
  // queueing behind evict_mu_ for the duration of every read.
  if (!serialize_miss_io_.load(std::memory_order_relaxed)) big.unlock();
  Status s = disk_->ReadPage(pid, &f.page);
  if (!s.ok()) {
    if (!big.owns_lock()) big.lock();
    AbandonFrameLocked(frame);
    return s;
  }
  const uint32_t replaced_staging = PublishClaimed(pid, frame);
  // Read-ahead skips claimed pages, so no staged copy can have appeared
  // while we read.
  OBJREP_CHECK_MSG(replaced_staging == UINT32_MAX,
                   "page staged while its miss claim is held");
  if (big.owns_lock()) big.unlock();
  *out = PageGuard(this, frame, pid);
  return Status::OK();
}

Status BufferPool::PinNewFrame(PageId pid, PageGuard* out) {
  // A recycled id may still have a hint reading its old image. Wait that
  // read out, then claim the id, so no later hint can stage it before the
  // zeroed frame is published over whatever copy the hint left.
  {
    Shard& shard = ShardFor(pid);
    std::unique_lock<std::mutex> l(shard.mu);
    AwaitUnclaimed(shard, l, pid);
    shard.table.Claim(pid);
  }
  std::unique_lock<std::mutex> big(evict_mu_);
  uint32_t frame;
  Status s = AllocateFrame(big, &frame);
  if (!s.ok()) {
    RetireClaim(pid);
    return s;
  }
  Frame& f = frames_[frame];
  f.pid = pid;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  f.in_use = true;
  f.page.Zero();
  const uint32_t superseded = PublishClaimed(pid, frame);
  big.unlock();
  if (superseded != UINT32_MAX) {
    ReleaseStagingFrame(superseded);
    prefetch_wasted_.Add(1);
  }
  *out = PageGuard(this, frame, pid);
  return Status::OK();
}

bool BufferPool::TryPinResident(PageId pid, PageGuard* out) {
  Shard& shard = ShardFor(pid);
  for (;;) {
    {
      std::lock_guard<std::mutex> l(shard.mu);
      const PageTable::Entry* e = shard.table.Find(pid);
      // Absent, claimed by a loader, or a staged copy: not a hit. The
      // miss path promotes a staged copy, charging the miss the
      // demand-paged run would take here.
      if (e == nullptr || e->frame >= capacity_) return false;
      if (TryPin(e->frame)) {
        *out = PageGuard(this, e->frame, pid);
        return true;
      }
      // pin_count == kEvicting: an evictor claimed the frame and is about
      // to erase this mapping (it needs our bucket latch to do so).
    }
    std::this_thread::yield();  // let the evictor finish, then re-probe
  }
}

Status BufferPool::FetchPage(PageId pid, PageGuard* out) {
  if (TryPinResident(pid, out)) {
    hits_.Add(1);
    return Status::OK();
  }
  // The miss is counted here, before the load resolves: even when a racing
  // loader wins and this thread never touches the disk, the access *was* a
  // miss — the divergence from the disk's flat read counter is what
  // coalesced_misses() accounts for (misses == demand reads + promoted +
  // coalesced, fault-free).
  misses_.Add(1);
  return LoadPageMiss(pid, out);
}

void BufferPool::PrefetchHint(const PageId* pids, size_t n) {
  if (!prefetch_enabled_ || n == 0) return;
  n = std::min<size_t>(n, kReadaheadPages);
  // Claim pass (order-preserving, duplicates dropped): ids already
  // resident, staged or claimed by another loader are skipped (a claimed
  // page's read is underway); the rest get a staging frame and a claim in
  // the page table, exactly as a demand miss would. A concurrent demand
  // fetch of a page whose hint read is in flight sleeps on that claim
  // instead of paying a redundant read, and the staged mapping is
  // published only once its bytes have landed. If staging runs short the
  // batch's tail is dropped — the earliest pages are the ones consumed
  // soonest. No pool frame is touched: read-ahead never evicts.
  std::vector<PageId> want;
  std::vector<uint32_t> slots;  // staging index per `want` page
  want.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PageId pid = pids[i];
    if (std::find(want.begin(), want.end(), pid) != want.end()) continue;
    Shard& shard = ShardFor(pid);
    std::lock_guard<std::mutex> l(shard.mu);
    if (shard.table.Find(pid) != nullptr) continue;
    {
      std::lock_guard<std::mutex> ls(staging_mu_);
      if (free_staging_.empty()) break;
      slots.push_back(free_staging_.back());
      free_staging_.pop_back();
    }
    shard.table.Claim(pid);
    want.push_back(pid);
  }
  if (want.empty()) return;
  std::vector<Page*> ptrs(slots.size());
  for (size_t j = 0; j < slots.size(); ++j) ptrs[j] = &staging_[slots[j]];
  Status s;
  {
    // Read-ahead reads are their own traffic class, whatever the hinting
    // thread was doing; they land on that thread's I/O counters.
    ScopedIoTag tag(IoTag::kPrefetch);
    s = disk_->ReadPages(want.data(), want.size(), ptrs.data());
  }
  // Counted before the claims resolve: a thread that sees the outcome sees
  // it through the bucket latch, and with it the count.
  if (!s.ok()) {
    // Nothing was published, so the staging frames go straight back to
    // the free list. Each retired claim wakes its sleepers, and one of
    // them becomes the page's demand loader; the error itself is dropped
    // (the page's next demand fetch reads it again).
    prefetch_wasted_.Add(want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      ReleaseStagingFrame(slots[j]);
      RetireClaim(want[j]);
    }
    return;
  }
  prefetched_.Add(want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    PublishClaimed(want[j], capacity_ + slots[j]);
  }
}

Status BufferPool::NewPage(PageGuard* out) {
  PageId pid = disk_->AllocatePage();
  Status s = PinNewFrame(pid, out);
  if (!s.ok()) {
    // Undo the allocation — without this, every failed NewPage (pool
    // exhausted, all frames pinned) leaked a disk page forever.
    disk_->FreePage(pid);
    return s;
  }
  // Route the initial dirtying through MarkDirty so a fresh page created
  // inside a transaction is captured like any other touched page (a hash
  // overflow page allocated mid-install must be redo-logged, or recovery
  // would resurrect a bucket chain pointing at zeroed bytes).
  out->MarkDirty();
  return Status::OK();
}

bool BufferPool::FreePage(PageId pid) {
  if (wal_ != nullptr && InTxn()) {
    // Deferred to commit: the page stays allocated (and resident) until
    // the transaction's outcome is durable, so an abort simply forgets
    // the free and a crash can never have reused the page uncommitted.
    txn_frees_.push_back(pid);
    return true;
  }
  return DoFreePage(pid);
}

bool BufferPool::DoFreePage(PageId pid) {
  Shard& shard = ShardFor(pid);
  uint32_t staged = UINT32_MAX;
  {
    // A hint still reading `pid` would stage a copy that outlives the
    // free: wait its claim out (before evict_mu_, which a demand loader's
    // claim may need), then drop whatever copy it published.
    std::unique_lock<std::mutex> l(shard.mu);
    const PageTable::Entry* e = AwaitUnclaimed(shard, l, pid);
    if (e != nullptr && IsStaged(e->frame)) {
      const uint32_t slot = e->frame;
      staged = slot - capacity_;
      shard.table.Unmap(pid, slot);
    }
  }
  if (staged != UINT32_MAX) {
    // Unconsumed staged copy: never dirty, just drop it.
    ReleaseStagingFrame(staged);
    prefetch_wasted_.Add(1);
  } else {
    std::unique_lock<std::mutex> big(evict_mu_);
    uint32_t frame = UINT32_MAX;
    {
      std::lock_guard<std::mutex> l(shard.mu);
      const PageTable::Entry* e = shard.table.Find(pid);
      if (e != nullptr && e->frame < capacity_) frame = e->frame;
    }
    if (frame != UINT32_MAX) {
      int expected = 0;
      if (!frames_[frame].pin_count.compare_exchange_strong(
              expected, kEvicting, std::memory_order_acquire)) {
        return false;  // pinned: the caller keeps the page
      }
      // Write-back if dirty: the same write that eviction or the
      // end-of-run flush would charge, so freeing never hides an I/O. If
      // the device fails the write the frame is restored intact and the
      // page stays allocated — the caller keeps it, same contract as the
      // pinned case.
      if (!ReclaimFrame(big, frame).ok()) return false;
      free_frames_.push_back(frame);
    }
  }
  disk_->FreePage(pid);
  return true;
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> big(evict_mu_);
  for (Frame& f : frames_) {
    if (f.in_use && f.dirty.load(std::memory_order_relaxed)) {
      // Flush writes carry the tag of the component that dirtied the page,
      // same as eviction write-backs.
      ScopedIoTag tag(f.dirty_tag.load(std::memory_order_relaxed));
      OBJREP_RETURN_NOT_OK(disk_->WritePage(f.pid, f.page));
      f.dirty.store(false, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void BufferPool::InvalidateAllClean() {
  std::unique_lock<std::mutex> big(evict_mu_);
  if (staging_count_ > 0) DropStagedPages();
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.in_use || f.dirty.load(std::memory_order_relaxed)) continue;
    int expected = 0;
    if (!f.pin_count.compare_exchange_strong(expected, kEvicting,
                                             std::memory_order_acquire)) {
      continue;  // pinned
    }
    // Clean by the check above; ReclaimFrame will not write (and therefore
    // never releases evict_mu_).
    OBJREP_CHECK(ReclaimFrame(big, i).ok());
    free_frames_.push_back(i);
  }
}

void BufferPool::ResetStats() {
  for (Counter* c : {&hits_, &misses_, &prefetched_, &evictions_,
                     &eviction_writes_, &prefetch_promoted_, &prefetch_wasted_,
                     &coalesced_misses_, &inflight_waits_}) {
    c->Reset();
  }
}

// ---------------------------------------------------------------------------
// Transactions (DESIGN.md §10). No-steal + write-through + redo-only WAL.

Status BufferPool::BeginTxn() {
  if (wal_ == nullptr) return Status::OK();
  if (InTxn()) {
    ++txn_depth_;
    return Status::OK();
  }
  if (needs_recovery_.load(std::memory_order_acquire)) {
    // A committed transaction's write-through apply failed. Until redo
    // recovery runs, a new commit could be partially rolled back by that
    // redo (its pages may share frames with the unapplied transaction's),
    // so refuse to open one.
    return Status::IOError("volume needs recovery before new transactions");
  }
  wal_mu_.lock();
  txn_owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  txn_active_.store(true, std::memory_order_release);
  txn_depth_ = 1;
  txn_failed_ = false;
  txn_id_ = wal_->Begin();
  txn_frames_.clear();
  txn_frees_.clear();
  return Status::OK();
}

void BufferPool::NoteTxnWrite(uint32_t frame) {
  // Owner thread only; the caller holds a pin, so frame -> pid is stable.
  // Transactions touch at most a few dozen pages; linear dedup is fine.
  for (uint32_t f : txn_frames_) {
    if (f == frame) return;
  }
  // The no-steal pin: while the transaction is open the frame cannot be
  // evicted, so no uncommitted image can ever reach the volume.
  frames_[frame].pin_count.fetch_add(1, std::memory_order_relaxed);
  txn_frames_.push_back(frame);
}

Status BufferPool::CommitTxn() {
  if (wal_ == nullptr) return Status::OK();
  OBJREP_CHECK_MSG(InTxn(), "CommitTxn without an owned transaction");
  if (txn_depth_ > 1) {
    --txn_depth_;
    return Status::OK();
  }
  Status s;
  if (txn_failed_) {
    // A nested scope aborted; the outer commit cannot resurrect it.
    DropTxnFrames();
    s = Status::Internal("transaction aborted by nested scope");
  } else {
    s = DoCommit();
  }
  EndTxnState();
  return s;
}

void BufferPool::AbortTxn() {
  if (wal_ == nullptr) return;
  OBJREP_CHECK_MSG(InTxn(), "AbortTxn without an owned transaction");
  if (txn_depth_ > 1) {
    // Defer to the outermost scope, poisoning its commit.
    --txn_depth_;
    txn_failed_ = true;
    return;
  }
  DropTxnFrames();
  EndTxnState();
}

Status BufferPool::DoCommit() {
  if (txn_frames_.empty() && txn_frees_.empty()) return Status::OK();
  FaultInjector* fi = disk_->fault_injector();

  Status s = fi->MaybeCrash("wal.commit.begin");
  if (s.ok()) {
    // Log after-images in page-id order: the log content of a transaction
    // is then a function of *what* it touched, not of guard access order.
    std::sort(txn_frames_.begin(), txn_frames_.end(),
              [this](uint32_t a, uint32_t b) {
                return frames_[a].pid < frames_[b].pid;
              });
    for (uint32_t fr : txn_frames_) {
      wal_->AppendPageImage(txn_id_, frames_[fr].pid, frames_[fr].page);
    }
    for (PageId pid : txn_frees_) {
      wal_->AppendFreePage(txn_id_, pid);
    }
    s = wal_->Commit(txn_id_);
  }
  if (!s.ok()) {
    // Never reached the commit point: the transaction is simply gone.
    // Drop its frames; the volume holds the last committed image of every
    // touched page (no-steal + write-through induction).
    DropTxnFrames();
    return s;
  }

  // Durable. Write through so the volume converges to the committed state
  // immediately; a crash anywhere in here is repaired by WAL redo.
  // Write-through traffic is the WAL protocol's, not the mutating
  // component's — the component's own tag would double-bill it for pages
  // the no-WAL run writes lazily at eviction/flush.
  ScopedIoTag wal_tag(IoTag::kWal);
  Status apply = Status::OK();
  for (uint32_t fr : txn_frames_) {
    if (apply.ok()) apply = fi->MaybeCrash("wal.apply.page");
    if (apply.ok()) apply = disk_->WritePage(frames_[fr].pid, frames_[fr].page);
    if (apply.ok()) frames_[fr].dirty.store(false, std::memory_order_relaxed);
  }
  // Release the no-steal pins regardless of apply outcome: the content is
  // committed either way. Frames whose write-through failed stay dirty, so
  // a later eviction/flush (or recovery redo) still converges the volume.
  // No restamp — the extra pin was invisible to the LRU.
  for (uint32_t fr : txn_frames_) {
    Unpin(fr, /*restamp=*/false);
  }
  txn_frames_.clear();
  if (apply.ok()) {
    for (PageId pid : txn_frees_) {
      apply = fi->MaybeCrash("wal.apply.free");
      if (!apply.ok()) break;
      DoFreePage(pid);
    }
  }
  txn_frees_.clear();
  if (apply.ok()) apply = wal_->AppendApplied(txn_id_);
  if (!apply.ok()) {
    // Committed but not (provably) fully applied: the volume must be
    // redone before the next transaction (see BeginTxn).
    needs_recovery_.store(true, std::memory_order_release);
  }
  return apply;
}

void BufferPool::DropTxnFrames() {
  std::unique_lock<std::mutex> big(evict_mu_);
  for (uint32_t fr : txn_frames_) {
    Frame& f = frames_[fr];
    // By commit/abort time every guard is released (RAII scopes inside the
    // strategy) and the LockManager isolates writers, so the no-steal pin
    // is the only one left. Claim it and drop the frame without write-back.
    int expected = 1;
    OBJREP_CHECK_MSG(f.pin_count.compare_exchange_strong(
                         expected, kEvicting, std::memory_order_acquire),
                     "transaction frame still pinned at abort");
    f.dirty.store(false, std::memory_order_relaxed);
    OBJREP_CHECK(ReclaimFrame(big, fr).ok());  // clean: cannot fail
    free_frames_.push_back(fr);
  }
  txn_frames_.clear();
  txn_frees_.clear();
}

void BufferPool::EndTxnState() {
  txn_frames_.clear();
  txn_frees_.clear();
  txn_depth_ = 0;
  txn_failed_ = false;
  txn_active_.store(false, std::memory_order_release);
  txn_owner_.store(std::thread::id(), std::memory_order_relaxed);
  wal_mu_.unlock();
}

uint64_t BufferPool::DropAllFrames() {
  std::unique_lock<std::mutex> big(evict_mu_);
  OBJREP_CHECK_MSG(!txn_active_.load(std::memory_order_acquire),
                   "DropAllFrames during an active transaction");
  // The caller is the recovery path; WAL redo follows and repairs any
  // committed-but-unapplied transaction.
  needs_recovery_.store(false, std::memory_order_release);
  if (staging_count_ > 0) DropStagedPages();
  uint64_t dropped = 0;
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.in_use) continue;
    int expected = 0;
    OBJREP_CHECK_MSG(f.pin_count.compare_exchange_strong(
                         expected, kEvicting, std::memory_order_acquire),
                     "DropAllFrames with pinned frames");
    f.dirty.store(false, std::memory_order_relaxed);
    OBJREP_CHECK(ReclaimFrame(big, i).ok());  // forced clean: cannot fail
    free_frames_.push_back(i);
    ++dropped;
  }
  return dropped;
}

}  // namespace objrep
