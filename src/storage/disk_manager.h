// Simulated disk: a growable array of pages with physical-I/O accounting.
//
// This replaces the real disk under commercial INGRES in the paper's setup.
// The substitution is safe because the study's metric is the *number* of
// page I/Os, not their latency (DESIGN.md §2).
//
// Device model (DESIGN.md §9): with the default zero latency the disk is a
// pure counter, bit-identical to the seed. When `io_latency_us` (seek) or
// `transfer_us` (per-page transfer) is nonzero, each I/O sleeps
//   seek * (1 if discontiguous else 0) + transfer
// in the calling thread, holding no lock; a vectored ReadPages charges one
// seek per discontiguity in the batch, which is how physical contiguity
// becomes wall-clock throughput without ever changing an I/O count.
//
// Thread safety: page reads and writes (counted and raw) take no lock. The
// volume is a two-level directory — a fixed top array of lazily allocated
// leaves of page pointers — that only grows: AllocatePage fills a slot
// (and, at a leaf boundary, the leaf) before publishing the new page count
// with a release store, and a reader that acquire-loads the count and
// finds its id below it sees a fully built page. Pages are never moved or
// deleted before the volume is. Allocation, freeing and the free list
// share one plain mutex. The I/O counters are relaxed atomic Counters —
// exact in total, but a mid-run snapshot may interleave with concurrent
// increments. Writers of the *same* page must be serialized by
// the exec-layer LockManager, exactly as with a real device.
#ifndef OBJREP_STORAGE_DISK_MANAGER_H_
#define OBJREP_STORAGE_DISK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/io_context.h"
#include "obs/metrics.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "util/status.h"

namespace objrep {

/// Owns all pages of one simulated database volume and counts physical I/O.
class DiskManager {
 public:
  /// Pages per directory leaf, and leaves in the top array: a volume holds
  /// at most kMaxLeaves * kPagesPerLeaf pages (32 GiB of 2 KiB pages).
  static constexpr uint32_t kLeafBits = 12;
  static constexpr uint32_t kPagesPerLeaf = 1u << kLeafBits;
  static constexpr uint32_t kMaxLeaves = 4096;

  DiskManager() = default;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a zeroed page and returns its id — a previously freed page
  /// when the free list is non-empty, else a fresh one. Allocation itself
  /// is not charged; the first write of the page is.
  PageId AllocatePage();

  /// Returns `page_id` to the free list for reuse by AllocatePage. Only
  /// temp relations call this (DESIGN.md §9); base relations live for the
  /// whole experiment. Freeing an unallocated or already-free page is a
  /// fatal bug, not a Status.
  void FreePage(PageId page_id);

  /// Copies a page from "disk" into `out`. Charges one read: the same
  /// call as ReadPages(&page_id, 1, &out).
  Status ReadPage(PageId page_id, Page* out);

  /// Vectored read: copies `n` pages into `outs[0..n)`. Charges `n` reads
  /// exactly as `n` ReadPage calls would, but sleeps one seek per
  /// discontiguous segment instead of one per page. All-or-nothing: an
  /// unallocated id anywhere in the batch fails the whole call with no
  /// reads charged.
  Status ReadPages(const PageId* page_ids, size_t n, Page* const* outs);

  /// Copies `in` onto "disk". Charges one write. Honors the
  /// `disk.write.torn` crash point: a prefix of the page is transferred,
  /// the volume crashes, and the call fails — the torn-sector model.
  Status WritePage(PageId page_id, const Page& in);

  /// Uncounted, unfaulted read — the forensic path for recovery, WAL redo
  /// verification, and test checksums. Never perturbs the I/O study.
  Status ReadPageRaw(PageId page_id, Page* out) const;

  /// Uncounted, unfaulted write — WAL redo lands committed images through
  /// this, so replay cost never pollutes the experiment counters.
  void WritePageRaw(PageId page_id, const Page& in);

  /// Idempotent free for recovery replay: returns false (no-op) when the
  /// page is already on the free list, true when this call freed it.
  bool TryFreePage(PageId page_id);

  /// True when `page_id` exists and is not on the free list — lets test
  /// checksums walk exactly the live pages of the volume.
  bool PageIsAllocated(PageId page_id) const;

  /// The volume's fault source. Disabled by default (one relaxed load on
  /// the hot path); configure/arm it to inject faults or crashes.
  FaultInjector* fault_injector() { return &injector_; }

  /// Allocated address space in pages (free-listed pages included — the
  /// high-water footprint of the volume).
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  /// Pages currently on the free list.
  uint64_t num_free_pages() const {
    std::lock_guard<std::mutex> l(mu_);
    return free_list_.size();
  }

  /// Snapshot of the I/O counters (exact once the engine is quiescent):
  /// reads and writes are the sums of the per-tag counts.
  IoCounters counters() const {
    IoTagBreakdown b = breakdown();
    return IoCounters{b.total_reads(), b.total_writes(), seq_reads_.value(),
                      rand_reads_.value()};
  }
  void ResetCounters() {
    for (Counter& c : tag_reads_) c.Reset();
    for (Counter& c : tag_writes_) c.Reset();
    seq_reads_.Reset();
    rand_reads_.Reset();
  }

  /// Per-tag attribution snapshot. Each counted read/write lands in the
  /// slot of the thread's current IoTag, so summing the breakdown over all
  /// tags is counters() (once quiescent).
  IoTagBreakdown breakdown() const {
    IoTagBreakdown b;
    for (size_t i = 0; i < kNumIoTags; ++i) {
      b.reads[i] = tag_reads_[i].value();
      b.writes[i] = tag_writes_[i].value();
    }
    return b;
  }

  /// Simulated seek latency (default 0: the seed's pure counting model).
  /// When nonzero, every discontiguous physical I/O sleeps this long,
  /// holding no lock — lets the throughput bench show I/O overlap across
  /// worker threads the way a real spindle/SSD queue would.
  /// Reads whose page id follows the previous read (sequentially, or
  /// within a ReadPages batch) skip the seek.
  void set_io_latency_us(uint32_t us) {
    io_latency_us_.store(us, std::memory_order_relaxed);
  }
  uint32_t io_latency_us() const {
    return io_latency_us_.load(std::memory_order_relaxed);
  }

  /// Simulated per-page transfer time (default 0), charged to every
  /// physical read/write regardless of contiguity.
  void set_transfer_us(uint32_t us) {
    transfer_us_.store(us, std::memory_order_relaxed);
  }
  uint32_t transfer_us() const {
    return transfer_us_.load(std::memory_order_relaxed);
  }

 private:
  /// Sleeps `seeks` seek latencies plus `pages` transfer times (no-op when
  /// both knobs are 0). Called after the page copy, holding no lock.
  void SimulateLatency(uint64_t seeks, uint64_t pages) const;
  /// Classifies a read run starting at `first` for `n` contiguous pages
  /// against the calling thread's arm position and updates seq/rand
  /// counters; returns seeks (0/1).
  uint64_t AccountReadRun(PageId first, uint64_t n);
  /// Bumps the calling thread's IoTag slot (the profiles' and adaptive
  /// engine's per-query observation feed) and the volume's for `n` reads.
  void AttributeReads(uint64_t n) {
    IoThreadState& st = CurrentIoThreadState();
    st.tag_reads[static_cast<size_t>(st.tag)] += n;
    tag_reads_[static_cast<size_t>(st.tag)].Add(n);
  }
  /// Bumps the calling thread's and the volume's IoTag slot for one write.
  void AttributeWrite() {
    IoThreadState& st = CurrentIoThreadState();
    st.tag_writes[static_cast<size_t>(st.tag)] += 1;
    tag_writes_[static_cast<size_t>(st.tag)].Add(1);
  }

  /// The page `page_id`, or nullptr when it lies past the published end
  /// of the volume. Lock-free (see the thread-safety note above).
  Page* PageAt(PageId page_id) const {
    if (page_id >= num_pages_.load(std::memory_order_acquire)) return nullptr;
    return dir_[page_id >> kLeafBits][page_id & (kPagesPerLeaf - 1)].get();
  }

  /// Leaves of page slots; a leaf and its slots are written once, under
  /// mu_, before num_pages_ publishes them.
  std::unique_ptr<std::unique_ptr<Page>[]> dir_[kMaxLeaves];
  std::atomic<uint64_t> num_pages_{0};
  mutable std::mutex mu_;              // allocation, free list
  std::vector<PageId> free_list_;      // guarded by mu_
  std::vector<uint8_t> page_is_free_;  // guarded by mu_; double-free check
  // The volume's I/O counts, children of the registry's disk.* counters
  // (DESIGN.md §11): a read or write is counted once, in its IoTag slot.
  std::array<Counter, kNumIoTags> tag_reads_ = ChildCounters<kNumIoTags>(
      MetricsRegistry::Global().GetCounter("disk.reads"));
  std::array<Counter, kNumIoTags> tag_writes_ = ChildCounters<kNumIoTags>(
      MetricsRegistry::Global().GetCounter("disk.writes"));
  Counter seq_reads_{MetricsRegistry::Global().GetCounter("disk.seq_reads")};
  Counter rand_reads_{MetricsRegistry::Global().GetCounter("disk.rand_reads")};
  /// Simulated device time, kept only process-wide.
  Counter* const device_us_ =
      MetricsRegistry::Global().GetCounter("disk.device_us");
  /// Identifies this volume in per-thread arm state (IoThreadState): each
  /// reading thread tracks its own last-read page, keyed by this serial, so
  /// interleaved sequential scanners don't turn each other's runs random
  /// and a thread alternating between volumes doesn't splice runs.
  const uint64_t serial_ = NextSerial();
  static uint64_t NextSerial();
  std::atomic<uint32_t> io_latency_us_{0};
  std::atomic<uint32_t> transfer_us_{0};
  FaultInjector injector_;
};

}  // namespace objrep

#endif  // OBJREP_STORAGE_DISK_MANAGER_H_
