// LRU buffer pool, safe for concurrent use by the execution engine.
//
// The paper fixes a main-memory buffer of 100 INGRES data pages for every
// experiment; the buffer pool is therefore a first-class part of the cost
// model — B-tree roots and hot leaves hit in memory, cold leaves cost one
// physical read, and dirty pages cost one physical write when evicted (or
// at end-of-run flush).
//
// Concurrency design (DESIGN.md §8, §17):
//   * The page table is sharded into kNumShards hash buckets, each behind
//     its own latch, so concurrent hits on different pages do not contend.
//     Each bucket is one open-addressing PageTable (storage/page_table.h)
//     holding resident, staged *and* claimed pages, with no heap node per
//     entry: a warm pool serves a miss without allocating.
//   * Pins are per-frame atomics (a pin is taken by CAS under the bucket
//     latch; releases are latch-free). A frame with pin_count == kEvicting
//     is claimed by an evictor; the hit path retries around the claim.
//   * Replacement is exact strict LRU: each frame records the global clock
//     stamp of its last unpin, and victim selection (serialized by
//     `evict_mu_`, which also covers FlushAll and InvalidateAllClean)
//     picks the unpinned in-use frame with the smallest (stamp, frame)
//     pair. Each victim costs one linear pass over the frames under
//     evict_mu_ — no sort, no heap allocation — so a miss holds the latch
//     for O(capacity) loads. Invariant: the single-threaded victim sequence
//     (and write-back order) equals a plain list LRU's, so all paper
//     figures are unchanged; buffer_pool_lru_test drives the pool and a
//     list-LRU reference model through the same seeded traces to prove it.
//   * Demand-miss I/O runs *outside* evict_mu_ (DESIGN.md §17). A misser
//     claims the page in its page-table entry (probe-or-claim is atomic
//     under the bucket latch), holds evict_mu_ only long enough to pick a
//     victim frame, reads from disk with no pool latch held, and publishes
//     the frame and retires the claim in one bucket-latch hold.
//     Concurrent missers of the same page sleep on the bucket's condvar,
//     under the bucket latch, until the claim they saw resolves, instead
//     of issuing duplicate reads — miss coalescing: one physical read
//     serves every storm thread, and the latecomers count a coalesced miss
//     (see coalesced_misses()). Publication notifies only when the bucket
//     has sleepers. A failed read retires the claim with no mapping
//     published; each waiter retries from the top, so exactly one of them
//     re-issues the read and the rest coalesce on the new claim, while the
//     failing loader propagates its error.
//   * Dirty-victim write-back also runs outside evict_mu_: the kEvicting
//     claim keeps the frame invisible to other evictors and un-pinnable,
//     and the page-table mapping stays in place until after the write, so
//     a concurrent reader of the victim page spins briefly instead of
//     reading a stale image from disk. The no-steal pin means a frame
//     dirtied inside a WAL transaction is never a victim, so this moves
//     no write across a commit boundary. Consequence: holding evict_mu_
//     no longer excludes an in-flight eviction, so paths that probe the
//     table under evict_mu_ must treat a claimed frame as "retry later",
//     never spin on it (the claimant needs evict_mu_ to finish).
//   * hits()/misses() are relaxed child counters of the registry's pool.*
//     counters, each bumped once per event: totals are exact once the pool
//     is quiescent, but a concurrent reader may observe them mid-update
//     (approximate while workers run).
//
// Read-ahead runs through dedicated *staging frames*, never the pool
// proper: PrefetchHint vector-reads absent pages into staging frames (map
// entries >= capacity_ denote staged copies), evicting nothing. The first
// demand access of a staged page counts as a miss and *promotes* it —
// allocating a pool frame through the very same free-list/LRU decision the
// demand-paged run would make at that instant, then copying the staged
// bytes in place of the disk read (which already happened, and was already
// counted, at hint time). By induction the pool's frame contents, LRU
// stamps, victims, and every hit/miss/read/write count are bit-identical
// to running with prefetch off; only the *timing* of reads moves earlier,
// which is what turns random single-page reads into sequential vectored
// segments. PrefetchHint is a no-op until SetPrefetchEnabled turns it on,
// so the default pool behaves bit-identically to the seed. A hint runs on
// the thread that issues it: it claims each page in the page table exactly
// as a demand miss does, reads, and publishes the staged mapping only once
// the bytes have landed, all before returning. Concurrent query threads
// still hint, so a demand fetch racing another thread's in-flight hint
// sleeps on that claim rather than issuing its own read, then promotes the
// published copy, and a hint skips any page that is already mapped or
// claimed. Every in-flight read, demand or read-ahead, is one page-table
// claim, and there is one way to wait for it.
//
// Transactions (DESIGN.md §10): with a Wal attached, Begin/Commit/Abort
// bracket multi-page mutations. The pool runs a no-steal policy — every
// frame dirtied inside a transaction takes one extra pin until the
// transaction resolves, so uncommitted bytes never reach the volume — and
// commit is write-through (log after-images, sync, then WritePage each),
// so after every commit the volume holds exactly the committed state and
// abort is simply dropping the touched frames without write-back.
// FreePage calls inside a transaction are deferred to commit. One
// transaction runs at a time (wal_mu_, reentrant on the owner thread).
//
// Latch order: wal_mu_ -> evict_mu_ -> bucket latch -> staging_mu_. The
// hit path takes only a bucket latch; no path takes two bucket latches at
// once. PrefetchHint takes no evict_mu_ at all, so one thread's read-ahead
// never blocks another's demand path. Claims live in the page table,
// and a thread waits for another loader's claim (a miss, NewPage of a
// recycled id, FreePage) on the bucket's condvar, which releases the
// bucket latch while it sleeps; it never waits that way while holding
// evict_mu_ or its own claims (the loader may need either).
#ifndef OBJREP_STORAGE_BUFFER_POOL_H_
#define OBJREP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/page_table.h"
#include "util/status.h"

namespace objrep {

class BufferPool;
class Wal;

/// RAII pin on a buffered page. Move-only; unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t frame, PageId pid)
      : pool_(pool), frame_(frame), pid_(pid) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      pid_ = other.pid_;
      stamp_on_release_ = other.stamp_on_release_;
      other.pool_ = nullptr;
    }
    return *this;
  }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return pid_; }

  /// Makes Release() skip the LRU restamp, leaving the frame's recency
  /// exactly as it was before this pin. Read-ahead bookkeeping peeks
  /// (TryFetchResident) use this so they cannot rescue a page from an
  /// eviction the demand-paged run would have taken (DESIGN.md §9).
  void DisableStampOnRelease() { stamp_on_release_ = false; }

  Page* page();
  const Page* page() const;

  /// Marks the page dirty; it will be written back on eviction or flush.
  void MarkDirty();

  /// Explicitly unpins early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId pid_ = kInvalidPageId;
  bool stamp_on_release_ = true;
};

/// Fixed-capacity page cache with strict LRU replacement among unpinned
/// frames. All page traffic in the library flows through here. Concurrent
/// FetchPage/NewPage/guard use is safe; writers of page *content* must be
/// isolated from readers of the same relation by the exec-layer
/// LockManager (the pool latches frames, not tuples).
class BufferPool {
 public:
  /// Cap on pages per read-ahead hint (a consumer may offer more; the rest
  /// are dropped, not queued).
  static constexpr uint32_t kReadaheadPages = 8;

  BufferPool(DiskManager* disk, uint32_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `pid`, reading it from disk on a miss.
  Status FetchPage(PageId pid, PageGuard* out);

  /// Pins `pid` only if it is already resident in the pool proper (staged
  /// copies do not count). Never touches the disk, does not count a hit or
  /// a miss, and the release does not restamp the LRU — read-ahead
  /// bookkeeping (e.g. the B-tree re-walking buffer-hot internal nodes to
  /// learn upcoming leaf ids) uses this to stay completely invisible to
  /// both the I/O accounting and the replacement order.
  bool TryFetchResident(PageId pid, PageGuard* out) {
    if (!TryPinResident(pid, out)) return false;
    out->DisableStampOnRelease();
    return true;
  }

  /// Read-ahead: vector-reads the absent pages among the first
  /// kReadaheadPages of `pids[0..n)` into staging frames, on the calling
  /// thread, before returning. No-op unless prefetch is enabled. Evicts
  /// nothing and does not touch hits()/misses(); the staged copy is
  /// promoted into a pool frame (counting the miss the demand run would
  /// take) on first demand access. Pages that cannot get a staging frame
  /// are silently skipped, and a failed read is dropped (the page's next
  /// demand fetch reads it again) — prefetch is advisory.
  void PrefetchHint(const PageId* pids, size_t n);

  /// Turns read-ahead on or off and (re)provisions the staging frames,
  /// dropping any staged pages. Off (the default, and the seed's
  /// behaviour) makes every PrefetchHint a no-op. Not thread-safe against
  /// concurrent hints or fetches: call while the pool is quiescent
  /// (between runs).
  void SetPrefetchEnabled(bool enabled);
  bool prefetch_enabled() const { return prefetch_enabled_; }

  /// Pages actually loaded (not already resident) by PrefetchHint calls.
  uint64_t prefetched_pages() const { return prefetched_.value(); }

  /// Page ids currently sitting in staging frames (hinted, read, but not
  /// yet promoted by a demand access). Quiescent use only — tests and
  /// debugging; a long-lived entry here means some consumer hinted a page
  /// it never read, violating the §9 exactness invariant.
  std::vector<PageId> StagedPageIds();

  /// Allocates a new zeroed page on disk and pins it (dirty).
  Status NewPage(PageGuard* out);

  /// Discards `pid` from the pool (writing it back first if dirty — the
  /// same write eviction or FlushAll would charge) and returns it to the
  /// disk's free list. Returns false and does nothing if the page is
  /// currently pinned. Only temp relations free pages (DESIGN.md §9).
  bool FreePage(PageId pid);

  /// Writes back every dirty frame (each costs one physical write).
  /// Requires quiescence: no concurrent guard may be mutating content.
  Status FlushAll();

  /// Drops every unpinned frame without writing it back. Only used by tests.
  void InvalidateAllClean();

  /// Zeroes every pool statistic (hits, misses, prefetched, evictions,
  /// eviction writes, prefetch promoted/wasted). RunWorkload calls this at
  /// the start of every measured sequence so the counters describe the run,
  /// not whatever happened since construction (database build, warmup,
  /// earlier runs) — and so per-run deltas can never go negative.
  void ResetStats();

  /// Attaches a write-ahead log, enabling Begin/Commit/AbortTxn. Without
  /// one the three are no-ops and the pool behaves exactly as the seed.
  void AttachWal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  /// Opens a transaction (blocks while another thread's is active).
  /// Reentrant on the owner thread: nested Begin/Commit pairs join the
  /// outer transaction, which alone decides the outcome.
  Status BeginTxn();
  /// Commit point + write-through apply. On any failure (injected fault,
  /// crash point) the touched frames are dropped and the volume is left
  /// on the last committed state — unless the commit record became
  /// durable first, in which case recovery will redo the transaction.
  Status CommitTxn();
  /// Drops every frame the transaction dirtied, without write-back, and
  /// forgets its deferred frees. The volume already holds the last
  /// committed image of each touched page (no-steal + write-through).
  void AbortTxn();
  /// True when the calling thread owns the active transaction.
  bool InTxn() const {
    return txn_active_.load(std::memory_order_acquire) &&
           txn_owner_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id();
  }
  /// True after a durable commit whose write-through apply failed; BeginTxn
  /// refuses new transactions until recovery (DropAllFrames + WAL redo).
  bool needs_recovery() const {
    return needs_recovery_.load(std::memory_order_acquire);
  }

  /// Empties the pool without writing anything back — the simulated loss
  /// of volatile state. First step of crash recovery; requires no pinned
  /// frames and no active transaction (fatal otherwise). Returns the
  /// number of resident frames discarded.
  uint64_t DropAllFrames();

  uint32_t capacity() const { return capacity_; }
  /// Monotonic; exact when quiescent, approximate while workers run.
  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  /// LRU victims reclaimed for a demand miss (free-list takes excluded).
  uint64_t evictions() const { return evictions_.value(); }
  /// Dirty reclaims that stalled on a write-back (eviction or free).
  uint64_t eviction_writes() const { return eviction_writes_.value(); }
  /// Staged pages consumed by a demand access (the prefetch "hits").
  uint64_t prefetch_promoted() const { return prefetch_promoted_.value(); }
  /// Staged pages dropped, freed, superseded by NewPage of a recycled id,
  /// or whose hint read failed — read-ahead work that saved nothing.
  uint64_t prefetch_wasted() const { return prefetch_wasted_.value(); }
  /// Misses whose physical read was performed by another thread: the
  /// misser lost the race to a concurrent loader of the same page and
  /// pinned that loader's frame instead of touching the disk. Fault-free
  /// invariant (see DESIGN.md §17):
  ///   misses == demand reads + prefetch_promoted + coalesced_misses
  /// where demand reads == disk reads - prefetched_pages.
  uint64_t coalesced_misses() const { return coalesced_misses_.value(); }
  /// Times a thread slept on another thread's in-flight read: a demand
  /// loader's (the misser then coalesces on its frame) or a read-ahead
  /// hint's (the misser then promotes the staged copy), or — for NewPage
  /// and FreePage — a hint still reading a recycled or freed id.
  uint64_t inflight_waits() const { return inflight_waits_.value(); }
  /// Benchmark/test knob reproducing the pre-§17 serialized miss path:
  /// demand-miss reads and dirty-victim write-backs run while holding
  /// evict_mu_, so every miss in the process queues behind one mutex.
  /// bench/read_concurrency uses this as its A/B baseline; real consumers
  /// never touch it.
  void SetSerializeMissIo(bool on) {
    serialize_miss_io_.store(on, std::memory_order_relaxed);
  }
  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;

  static constexpr uint32_t kNumShards = 16;
  /// pin_count value marking a frame claimed by an evictor.
  static constexpr int kEvicting = -1;

  struct Frame {
    Page page;
    PageId pid = kInvalidPageId;
    std::atomic<int> pin_count{0};
    std::atomic<bool> dirty{false};
    /// IoTag of the thread that last dirtied the page. Deferred write-backs
    /// (eviction, free, flush) re-enter this tag around their WritePage, so
    /// the physical write is attributed to the component that *produced*
    /// the bytes, not whichever query happened to trigger the eviction
    /// (last writer wins on multiply-dirtied pages). Relaxed atomic: set
    /// under a pin, read under evict_mu_ with pin_count == 0.
    std::atomic<IoTag> dirty_tag{IoTag::kNone};
    bool in_use = false;  // guarded by evict_mu_
    /// Global clock stamp of the last unpin; eviction takes the minimum
    /// over unpinned frames — exactly the old intrusive-list LRU order.
    std::atomic<uint64_t> last_unpin{0};
  };

  /// Staging frames provisioned per kReadaheadPages window, so a few
  /// consumers' windows can be staged at once.
  static constexpr uint32_t kStagingPerWindow = 4;

  /// One page-table shard (DESIGN.md §17). `table` holds resident,
  /// staged and claimed pages alike; sharing `mu` between the mapping and
  /// the claim makes probe-or-claim atomic, so at most one loader per page
  /// exists and a misser that finds neither a mapping nor a claim knows
  /// the read is not underway. Missers of a claimed page sleep on `cv`
  /// under `mu`; `waiters` counts them, so retiring a claim notifies only
  /// when someone is asleep.
  struct Shard {
    std::mutex mu;
    PageTable table;
    std::condition_variable cv;
    uint32_t waiters = 0;  // guarded by mu
  };
  Shard& ShardFor(PageId pid) {
    // Pages ids are sequential; spread neighbors across shards.
    return shards_[(pid * 0x9e3779b1u >> 16) & (kNumShards - 1)];
  }

  void Unpin(uint32_t frame, bool restamp = true);
  /// PageGuard::MarkDirty lands here: sets the dirty flag and, when the
  /// calling thread owns the active transaction, captures the frame into
  /// it (NoteTxnWrite). Non-owner threads (concurrent temp writers) are
  /// deliberately not captured — their pages are not transactional.
  void MarkFrameDirty(uint32_t frame) {
    frames_[frame].dirty.store(true, std::memory_order_relaxed);
    frames_[frame].dirty_tag.store(CurrentIoTag(), std::memory_order_relaxed);
    if (txn_active_.load(std::memory_order_acquire) &&
        txn_owner_.load(std::memory_order_relaxed) ==
            std::this_thread::get_id()) {
      NoteTxnWrite(frame);
    }
  }
  /// Owner thread only. Takes the no-steal extra pin on first capture.
  void NoteTxnWrite(uint32_t frame);
  /// Releases the transaction's frames without write-back (abort, or
  /// commit that failed before the commit point). Takes evict_mu_.
  void DropTxnFrames();
  /// Clears transaction state and releases wal_mu_.
  void EndTxnState();
  /// The full commit protocol; called with wal_mu_ held, depth at 0.
  Status DoCommit();
  /// FreePage without transactional deferral (also the commit-apply path).
  bool DoFreePage(PageId pid);
  /// True when page-table slot value `slot` names a staging frame.
  bool IsStaged(uint32_t slot) const {
    return slot >= capacity_ && slot != PageTable::kNoFrame;
  }
  /// Adds a pin to `frame` unless an evictor has claimed it (kEvicting).
  bool TryPin(uint32_t frame) {
    std::atomic<int>& pins = frames_[frame].pin_count;
    int c = pins.load(std::memory_order_relaxed);
    while (c >= 0) {
      if (pins.compare_exchange_weak(c, c + 1, std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }
  /// Hit path of FetchPage without the miss fallback: pins `pid` if it is
  /// mapped (retrying around in-flight evictions). Returns false on miss.
  bool TryPinResident(PageId pid, PageGuard* out);
  /// With `shard`'s latch held in `l`: sleeps on the bucket condvar until
  /// `pid` carries no claim, and returns its entry (nullptr if none).
  /// Every wait for an in-flight read — demand or read-ahead — is this one.
  const PageTable::Entry* AwaitUnclaimed(Shard& shard,
                                         std::unique_lock<std::mutex>& l,
                                         PageId pid);
  /// The demand-miss path (DESIGN.md §17); the miss is already counted.
  /// Loops: sleep while another loader's claim is in flight, pin if
  /// resident (a coalesced miss), else claim the page, load it with the
  /// disk read outside every pool latch, and publish.
  Status LoadPageMiss(PageId pid, PageGuard* out);
  /// Loads `pid` while owning its claim: promotes the staged copy at
  /// staging index `staged` (UINT32_MAX: none), else allocates a victim
  /// under evict_mu_ and reads the page with the latch released. On
  /// success the claim is retired by the publication itself; on failure
  /// the caller retires it.
  Status LoadClaimedPage(PageId pid, uint32_t staged, PageGuard* out);
  /// Publishes `frame` as the mapping of the caller-claimed `pid` and
  /// retires the claim in one bucket-latch hold, waking sleeping missers.
  /// Returns the staging index the mapping replaced, or UINT32_MAX.
  uint32_t PublishClaimed(PageId pid, uint32_t frame);
  /// Retires the caller's claim on `pid` without publishing (failed
  /// load), waking sleeping missers so one of them becomes the loader.
  void RetireClaim(PageId pid);
  /// Takes a free frame, else claims and reclaims the strict-LRU victim
  /// found by one min-stamp pass; NoSpace when every frame is pinned.
  /// `lk` holds evict_mu_ on entry and exit but may be released around a
  /// dirty victim's write-back (see ReclaimFrame).
  Status AllocateFrame(std::unique_lock<std::mutex>& lk, uint32_t* frame_out);
  /// Claims + unmaps one evictable frame, writing it back if dirty. `lk`
  /// holds evict_mu_ on entry and exit; a dirty write-back releases it
  /// around the device write — the kEvicting claim keeps the frame
  /// invisible to other evictors, and the still-present mapping keeps
  /// readers of the victim page off the disk until the write lands.
  Status ReclaimFrame(std::unique_lock<std::mutex>& lk, uint32_t frame);
  /// NewPage's pin path: claims freshly-allocated page `pid` (waiting out
  /// a hint still reading a recycled id) and publishes a zeroed frame for
  /// it (no disk read), superseding any staged copy.
  Status PinNewFrame(PageId pid, PageGuard* out);
  /// Under evict_mu_: resets a frame that was allocated but whose disk
  /// read failed, returning it to the free list.
  void AbandonFrameLocked(uint32_t frame);
  /// Moves staged page `pid` (staging index `st_idx`) into a pool frame —
  /// allocating the victim now, exactly as the demand miss would — and
  /// returns the pinned guard. `lk` holds evict_mu_ (released transiently
  /// by AllocateFrame). Caller must own `pid`'s claim, which keeps the
  /// staged copy mapped and intact until the publication replaces it.
  Status PromoteStaged(std::unique_lock<std::mutex>& lk, uint32_t st_idx,
                       PageId pid, PageGuard* out);
  /// Returns a staging frame to the free list.
  void ReleaseStagingFrame(uint32_t st_idx);
  /// Drops every staged mapping (requires quiescence: no in-flight hints).
  /// Never waits: a staged mapping is published only after its read.
  void DropStagedPages();

  DiskManager* disk_;
  uint32_t capacity_;
  std::vector<Frame> frames_;

  std::mutex evict_mu_;                // victim selection, flush, recovery
  std::vector<uint32_t> free_frames_;  // guarded by evict_mu_
  Shard shards_[kNumShards];

  std::atomic<uint64_t> clock_{0};
  // The pool's statistics, each a child of the process-wide registry
  // counter of the same event (DESIGN.md §11): ResetStats zeroes the
  // pool's view, the registry keeps the cumulative sum.
  Counter hits_{MetricsRegistry::Global().GetCounter("pool.hits")};
  Counter misses_{MetricsRegistry::Global().GetCounter("pool.misses")};
  Counter prefetched_{
      MetricsRegistry::Global().GetCounter("pool.prefetch.pages")};
  Counter evictions_{MetricsRegistry::Global().GetCounter("pool.evictions")};
  Counter eviction_writes_{
      MetricsRegistry::Global().GetCounter("pool.eviction_writes")};
  Counter prefetch_promoted_{
      MetricsRegistry::Global().GetCounter("pool.prefetch.promoted")};
  Counter prefetch_wasted_{
      MetricsRegistry::Global().GetCounter("pool.prefetch.wasted")};
  Counter coalesced_misses_{
      MetricsRegistry::Global().GetCounter("pool.miss.coalesced")};
  Counter inflight_waits_{
      MetricsRegistry::Global().GetCounter("pool.miss.inflight_waits")};
  /// See SetSerializeMissIo.
  std::atomic<bool> serialize_miss_io_{false};

  bool prefetch_enabled_ = false;  // written only by SetPrefetchEnabled
  uint32_t staging_count_ = 0;
  /// Read-ahead buffers outside the pool; a staged copy is mapped in the
  /// page table as capacity_ + index. Staged pages are never pinned, never
  /// dirty, and never eviction candidates.
  std::unique_ptr<Page[]> staging_;
  std::mutex staging_mu_;               // guards free_staging_
  std::vector<uint32_t> free_staging_;  // claimable staging frames

  // Transaction state. wal_mu_ is held from BeginTxn to Commit/AbortTxn;
  // the vectors and txn_id_/txn_depth_/txn_failed_ are touched only by
  // the owner thread while it holds wal_mu_.
  Wal* wal_ = nullptr;
  std::mutex wal_mu_;
  std::atomic<bool> txn_active_{false};
  std::atomic<std::thread::id> txn_owner_{};
  int txn_depth_ = 0;
  bool txn_failed_ = false;
  uint64_t txn_id_ = 0;
  std::vector<uint32_t> txn_frames_;  // captured frames, one extra pin each
  std::vector<PageId> txn_frees_;     // deferred FreePage calls
  /// Set when a durable commit's write-through apply failed: redo recovery
  /// must run before the next transaction, or its redo could roll back
  /// pages a later commit also touched. Cleared by DropAllFrames.
  std::atomic<bool> needs_recovery_{false};
};

inline Page* PageGuard::page() { return &pool_->frames_[frame_].page; }
inline const Page* PageGuard::page() const {
  return &pool_->frames_[frame_].page;
}
inline void PageGuard::MarkDirty() { pool_->MarkFrameDirty(frame_); }
inline void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, stamp_on_release_);
    pool_ = nullptr;
    stamp_on_release_ = true;
  }
}

}  // namespace objrep

#endif  // OBJREP_STORAGE_BUFFER_POOL_H_
