// Per-component I/O attribution: a scoped, thread-local tag consumed by
// DiskManager so every counted physical read/write is attributed to the
// component that issued it (DESIGN.md §11).
//
// The tag is pure thread-local state — setting it is two stores, reading it
// one load, no atomics, no registry. Innermost scope wins: a strategy tags
// its child-probe loop kIndexProbe, and if the buffer pool evicts a dirty
// temp page while servicing that probe, the *write* is still attributed to
// the component that dirtied the page (BufferPool re-tags deferred
// write-backs with the frame's dirty_tag).
//
// The same thread-local block carries the simulated device arm position
// (last page read) so sequential-read classification is per reading thread,
// not global — two interleaved sequential scanners each see their own run
// (the seq/rand fix of PR 4).
#ifndef OBJREP_OBS_IO_CONTEXT_H_
#define OBJREP_OBS_IO_CONTEXT_H_

#include <cstddef>
#include <cstdint>

namespace objrep {

/// What the current thread is doing when it touches the disk. Tags mirror
/// the paper's cost taxonomy: parent scans, index probes into child
/// relations, heap fetches of child tuples, clustered-extent scans, temp
/// file + sort traffic, cache lookups vs cache maintenance, in-place
/// updates, prefetch reads, and WAL write-through.
enum class IoTag : uint8_t {
  kNone = 0,     // untagged (schema build, test setup)
  kParentScan,   // parent-relation B-tree range scan
  kIndexProbe,   // child-index probe (OID -> tuple), incl. ISAM lookups
  kHeapFetch,    // child tuple fetch during merge/hash join output
  kClusterScan,  // clustered child-relation extent scan (DFSCLUST)
  kTempSort,     // temp-file append/read + external-sort spill
  kCacheFetch,   // object-cache hit lookup
  kCacheMaint,   // object-cache install / invalidation / recovery reset
  kUpdate,       // in-place child update
  kPrefetch,     // staging-frame read-ahead, on the hinting thread
  kWal,          // commit write-through of logged pages
  kMvccCommit,   // MVCC commit path (FCW validation + version install)
  kMvccFold,     // MVCC fold of committed versions onto base pages
  kCount,
};

inline constexpr size_t kNumIoTags = static_cast<size_t>(IoTag::kCount);

/// Short stable name for JSON fields and table headers.
inline const char* IoTagName(IoTag tag) {
  switch (tag) {
    case IoTag::kNone: return "none";
    case IoTag::kParentScan: return "parent_scan";
    case IoTag::kIndexProbe: return "index_probe";
    case IoTag::kHeapFetch: return "heap_fetch";
    case IoTag::kClusterScan: return "cluster_scan";
    case IoTag::kTempSort: return "temp_sort";
    case IoTag::kCacheFetch: return "cache_fetch";
    case IoTag::kCacheMaint: return "cache_maint";
    case IoTag::kUpdate: return "update";
    case IoTag::kPrefetch: return "prefetch";
    case IoTag::kWal: return "wal";
    case IoTag::kMvccCommit: return "mvcc_commit";
    case IoTag::kMvccFold: return "mvcc_fold";
    case IoTag::kCount: break;
  }
  return "?";
}

/// Thread-local I/O state: the active attribution tag plus the simulated
/// device-arm position for sequential-read classification. The arm is keyed
/// by a per-DiskManager serial so a thread touching two volumes does not
/// splice their runs together (a stale serial reads as "arm unknown").
///
/// The tag_reads/tag_writes/seq_reads fields count this thread's own
/// physical I/O, monotonic for the thread's life. DiskManager bumps them at
/// the same sites as its volume counters, so a strategy can delta-snapshot
/// around a query and observe exactly its own I/O even while other workers
/// run — the observation feed of the adaptive engine (DESIGN.md §12).
/// Read-ahead runs on the hinting thread, so a query's staged reads land
/// here too (under IoTag::kPrefetch).
struct IoThreadState {
  IoTag tag = IoTag::kNone;
  uint64_t arm_serial = 0;            // DiskManager serial the arm belongs to
  uint64_t last_read = UINT64_MAX;    // page id of this thread's last read
  uint64_t tag_reads[kNumIoTags] = {};   // physical reads, by active tag
  uint64_t tag_writes[kNumIoTags] = {};  // physical writes, by active tag
  uint64_t seq_reads = 0;             // reads classified sequential
  uint64_t cache_hits = 0;            // object-cache lookup hits
  uint64_t cache_misses = 0;          // object-cache lookup misses
};

inline IoThreadState& CurrentIoThreadState() {
  thread_local IoThreadState state;
  return state;
}

inline IoTag CurrentIoTag() { return CurrentIoThreadState().tag; }

/// Snapshot of the calling thread's own physical I/O counts. Subtract two
/// snapshots to measure the I/O a bracketed piece of work performed on
/// this thread, immune to concurrent workers (unlike DiskManager::
/// counters(), which is volume-global).
struct ThreadIoSnapshot {
  uint64_t reads = 0;
  uint64_t seq_reads = 0;
  uint64_t writes = 0;

  uint64_t rand_reads() const { return reads - seq_reads; }
  uint64_t total() const { return reads + writes; }
  ThreadIoSnapshot operator-(const ThreadIoSnapshot& rhs) const {
    return ThreadIoSnapshot{reads - rhs.reads, seq_reads - rhs.seq_reads,
                            writes - rhs.writes};
  }
};

/// RAII tag scope. Nested scopes stack; the innermost wins.
class ScopedIoTag {
 public:
  explicit ScopedIoTag(IoTag tag) : prev_(CurrentIoThreadState().tag) {
    CurrentIoThreadState().tag = tag;
  }
  ~ScopedIoTag() { CurrentIoThreadState().tag = prev_; }

  ScopedIoTag(const ScopedIoTag&) = delete;
  ScopedIoTag& operator=(const ScopedIoTag&) = delete;

 private:
  IoTag prev_;
};

/// Per-tag physical I/O counts. Sum over all tags (kNone included) equals
/// the volume's IoCounters totals exactly — DiskManager::counters() is
/// that sum.
struct IoTagBreakdown {
  uint64_t reads[kNumIoTags] = {};
  uint64_t writes[kNumIoTags] = {};

  uint64_t total_reads() const {
    uint64_t t = 0;
    for (uint64_t r : reads) t += r;
    return t;
  }
  uint64_t total_writes() const {
    uint64_t t = 0;
    for (uint64_t w : writes) t += w;
    return t;
  }
  uint64_t total() const { return total_reads() + total_writes(); }
  uint64_t reads_for(IoTag tag) const {
    return reads[static_cast<size_t>(tag)];
  }
  uint64_t writes_for(IoTag tag) const {
    return writes[static_cast<size_t>(tag)];
  }
  uint64_t total_for(IoTag tag) const {
    return reads_for(tag) + writes_for(tag);
  }

  IoTagBreakdown operator-(const IoTagBreakdown& rhs) const {
    IoTagBreakdown out;
    for (size_t i = 0; i < kNumIoTags; ++i) {
      out.reads[i] = reads[i] - rhs.reads[i];
      out.writes[i] = writes[i] - rhs.writes[i];
    }
    return out;
  }
  IoTagBreakdown& operator+=(const IoTagBreakdown& rhs) {
    for (size_t i = 0; i < kNumIoTags; ++i) {
      reads[i] += rhs.reads[i];
      writes[i] += rhs.writes[i];
    }
    return *this;
  }
};

/// Snapshot of the calling thread's own per-tag physical I/O counts
/// (monotonic for the thread's life; DiskManager bumps them at the same
/// sites as its global per-tag slots). Delta two snapshots to get the
/// exact per-tag I/O a bracketed piece of single-threaded work performed —
/// the per-shard attribution feed of RetrieveProfile.
inline IoTagBreakdown CurrentThreadIoTags() {
  const IoThreadState& st = CurrentIoThreadState();
  IoTagBreakdown b;
  for (size_t i = 0; i < kNumIoTags; ++i) {
    b.reads[i] = st.tag_reads[i];
    b.writes[i] = st.tag_writes[i];
  }
  return b;
}

/// The calling thread's ThreadIoSnapshot: its per-tag totals plus its
/// sequential-read count.
inline ThreadIoSnapshot CurrentThreadIo() {
  const IoTagBreakdown io = CurrentThreadIoTags();
  return ThreadIoSnapshot{io.total_reads(), CurrentIoThreadState().seq_reads,
                          io.total_writes()};
}

}  // namespace objrep

#endif  // OBJREP_OBS_IO_CONTEXT_H_
