#include "storage/disk_manager.h"

#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/macros.h"

namespace objrep {

uint64_t DiskManager::NextSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void DiskManager::SimulateLatency(uint64_t seeks, uint64_t pages) const {
  uint64_t seek_us = io_latency_us_.load(std::memory_order_relaxed);
  uint64_t xfer_us = transfer_us_.load(std::memory_order_relaxed);
  uint64_t total = seeks * seek_us + pages * xfer_us;
  if (total != 0) {
    device_us_->Add(total);
    std::this_thread::sleep_for(std::chrono::microseconds(total));
  }
}

uint64_t DiskManager::AccountReadRun(PageId first, uint64_t n) {
  // The run [first, first + n) is contiguous on the platter; whether its
  // head page costs a seek depends on where this *thread* left the arm on
  // this volume. The arm is thread-local (keyed by the volume's serial):
  // two interleaved sequential scanners each see their own run as
  // sequential, instead of a global arm turning both random. The price is
  // per-thread arms on one volume ignoring each other — the simulated
  // device is optimistic about cross-thread locality, which is the right
  // bias for a diagnostic split (DESIGN.md §11).
  IoThreadState& st = CurrentIoThreadState();
  uint64_t prev = st.arm_serial == serial_ ? st.last_read : UINT64_MAX;
  st.arm_serial = serial_;
  st.last_read = static_cast<uint64_t>(first) + n - 1;
  bool head_seq = prev != UINT64_MAX && static_cast<uint64_t>(first) == prev + 1;
  uint64_t seeks = head_seq ? 0 : 1;
  uint64_t seq = n - seeks;
  // Only nonzero adds: a lone random read touches no seq counter, a
  // sequential one no rand counter.
  if (seq != 0) {
    st.seq_reads += seq;
    seq_reads_.Add(seq);
  }
  if (seeks != 0) rand_reads_.Add(seeks);
  return seeks;
}

PageId DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> l(mu_);
  if (!free_list_.empty()) {
    PageId pid = free_list_.back();
    free_list_.pop_back();
    page_is_free_[pid] = 0;
    PageAt(pid)->Zero();
    return pid;
  }
  const uint64_t n = num_pages_.load(std::memory_order_relaxed);
  OBJREP_CHECK_MSG(n < uint64_t{kMaxLeaves} * kPagesPerLeaf, "volume full");
  std::unique_ptr<std::unique_ptr<Page>[]>& leaf = dir_[n >> kLeafBits];
  if (leaf == nullptr) {
    leaf = std::make_unique<std::unique_ptr<Page>[]>(kPagesPerLeaf);
  }
  auto page = std::make_unique<Page>();
  page->Zero();
  leaf[n & (kPagesPerLeaf - 1)] = std::move(page);
  page_is_free_.push_back(0);
  // Publish: the leaf and the page above happen-before any reader that
  // acquire-loads a count covering this id.
  num_pages_.store(n + 1, std::memory_order_release);
  return static_cast<PageId>(n);
}

void DiskManager::FreePage(PageId page_id) {
  std::lock_guard<std::mutex> l(mu_);
  OBJREP_CHECK_MSG(page_id < num_pages(), "free of unallocated page");
  OBJREP_CHECK_MSG(!page_is_free_[page_id], "double free of page");
  page_is_free_[page_id] = 1;
  free_list_.push_back(page_id);
}

Status DiskManager::ReadPage(PageId page_id, Page* out) {
  return ReadPages(&page_id, 1, &out);
}

Status DiskManager::ReadPages(const PageId* page_ids, size_t n,
                              Page* const* outs) {
  if (n == 0) return Status::OK();
  // All-or-nothing like the unallocated-id check: a fault anywhere in the
  // batch fails the whole vectored read with no reads charged. Every
  // counted read, demand (n = 1) or read-ahead, takes this path.
  if (injector_.enabled()) {
    OBJREP_RETURN_NOT_OK(injector_.OnRead(n));
  }
  const uint64_t end = num_pages();
  for (size_t i = 0; i < n; ++i) {
    if (page_ids[i] >= end) {
      return Status::IOError("read of unallocated page");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(outs[i]->data, PageAt(page_ids[i])->data, kPageSize);
  }
  AttributeReads(n);
  // Charge one seek per discontiguous segment of the batch: the counters
  // are identical to n single ReadPage calls (n reads; the same pages are
  // sequential in the same order), only the simulated arm time amortizes.
  uint64_t seeks = 0;
  size_t run_start = 0;
  for (size_t i = 1; i <= n; ++i) {
    if (i == n || page_ids[i] != page_ids[i - 1] + 1) {
      seeks += AccountReadRun(page_ids[run_start], i - run_start);
      run_start = i;
    }
  }
  SimulateLatency(seeks, n);
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const Page& in) {
  Page* page = PageAt(page_id);
  if (injector_.enabled()) {
    OBJREP_RETURN_NOT_OK(injector_.OnWrite());
    Status torn = injector_.MaybeCrash("disk.write.torn");
    if (!torn.ok()) {
      // Torn sector: half the page lands on the platter, then the crash.
      // The partial transfer below makes the damage real; recovery must
      // restore the page from a durable WAL image, never trust it.
      if (page != nullptr) std::memcpy(page->data, in.data, kPageSize / 2);
      return torn;
    }
  }
  if (page == nullptr) return Status::IOError("write of unallocated page");
  std::memcpy(page->data, in.data, kPageSize);
  AttributeWrite();
  // Writes always pay the seek (eviction writebacks are scattered), and
  // they move the calling thread's arm off its read position.
  {
    IoThreadState& st = CurrentIoThreadState();
    st.arm_serial = serial_;
    st.last_read = UINT64_MAX;
  }
  SimulateLatency(1, 1);
  return Status::OK();
}

Status DiskManager::ReadPageRaw(PageId page_id, Page* out) const {
  const Page* page = PageAt(page_id);
  if (page == nullptr) return Status::IOError("raw read of unallocated page");
  std::memcpy(out->data, page->data, kPageSize);
  return Status::OK();
}

void DiskManager::WritePageRaw(PageId page_id, const Page& in) {
  Page* page = PageAt(page_id);
  OBJREP_CHECK_MSG(page != nullptr, "raw write of unallocated page");
  std::memcpy(page->data, in.data, kPageSize);
}

bool DiskManager::PageIsAllocated(PageId page_id) const {
  std::lock_guard<std::mutex> l(mu_);
  return page_id < num_pages() && !page_is_free_[page_id];
}

bool DiskManager::TryFreePage(PageId page_id) {
  std::lock_guard<std::mutex> l(mu_);
  OBJREP_CHECK_MSG(page_id < num_pages(), "try-free of unallocated page");
  if (page_is_free_[page_id]) return false;
  page_is_free_[page_id] = 1;
  free_list_.push_back(page_id);
  return true;
}

}  // namespace objrep
