// B+-tree keyed on uint64 with variable-length values.
//
// This is the primary structure of ParentRel, ChildRel and ClusterRel in
// the paper ("structured as B-trees on OID" / "on cluster#"), so it carries
// most of the study's I/O. Leaves are slotted pages whose slot arrays are
// kept in key order and chained for range scans; internal nodes are packed
// (key, child) arrays. Relations are bulk loaded once per experiment;
// incremental insert/delete exist for library completeness and for the
// cache-free temporaries in tests.
#ifndef OBJREP_ACCESS_BTREE_H_
#define OBJREP_ACCESS_BTREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "access/slotted_page.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

class BPlusTree {
 public:
  /// One (key, value) pair for bulk loading.
  struct Entry {
    uint64_t key;
    std::string value;
  };

  /// Shape statistics (filled by bulk load; maintained approximately by
  /// incremental inserts).
  struct Stats {
    uint32_t height = 0;       // 1 == root is a leaf
    uint32_t leaf_pages = 0;
    uint32_t internal_pages = 0;
    uint64_t num_entries = 0;
  };

  /// Bulk-load input: each call sets the next (key, value) pair and
  /// returns true, or returns false once the input is exhausted. `*value`
  /// must stay valid until the next call, so a source can reuse one buffer.
  using EntrySource =
      std::function<bool(uint64_t* key, std::string_view* value)>;

  BPlusTree() = default;

  /// Creates an empty tree (a single empty leaf).
  static Status Create(BufferPool* pool, BPlusTree* out);

  /// Builds a tree from the pairs `next` yields, which must come in strictly
  /// increasing key order, every leaf and internal node packed full. Each
  /// cell is copied straight into the open leaf, so the load allocates per
  /// page, not per entry. A key out of order fails the load with
  /// InvalidArgument; the pages written before it stay allocated.
  static Status BulkLoad(BufferPool* pool, const EntrySource& next,
                         BPlusTree* out);
  /// BulkLoad over a vector of entries.
  static Status BulkLoad(BufferPool* pool, const std::vector<Entry>& entries,
                         BPlusTree* out);

  /// Point lookup. NotFound if absent.
  Status Get(uint64_t key, std::string* value) const;

  /// Inserts a new key. InvalidArgument if the key already exists.
  Status Insert(uint64_t key, std::string_view value);

  /// Overwrites the value of an existing key with a same-length value.
  Status UpdateInPlace(uint64_t key, std::string_view value);

  /// Removes a key (lazy: no page merging; space reclaimed on page rebuild).
  Status Delete(uint64_t key);

  /// Offers the leaves that `keys[0..n)` (sorted ascending) land in to the
  /// buffer pool as a read-ahead batch, without performing the probes.
  /// Entirely invisible to the demand path: the walk pins only resident
  /// internal nodes, counts no hits or misses, and leaves every LRU stamp
  /// untouched, so a caller that afterwards Get()s the keys in *any* order
  /// sees bit-identical I/O counts to not calling this at all — the only
  /// change is that the leaf reads happen here, batched and sorted
  /// (DESIGN.md §9). Best-effort: stops at the first non-resident internal
  /// node or when the hint window (kReadaheadPages) fills. No-op when
  /// prefetch is disabled.
  void HintLeavesForKeys(const uint64_t* keys, size_t n) const;

  const Stats& stats() const { return stats_; }
  PageId root() const { return root_; }
  PageId first_leaf() const { return first_leaf_; }
  BufferPool* pool() const { return pool_; }

  /// Forward cursor over leaf entries in key order.
  class Iterator {
   public:
    explicit Iterator(const BPlusTree* tree) : tree_(tree) {}

    /// Positions at the first entry with key >= `key`.
    Status Seek(uint64_t key);
    /// Forward-only reposition to the first entry with key >= `key`,
    /// assuming `key` is >= the current position. Stays on the current
    /// leaf when possible (sequential merge-join behaviour), re-descends
    /// from the root only when the target lies beyond this leaf. A cursor
    /// already past the end stays invalid.
    Status SeekForward(uint64_t key);
    Status SeekToFirst();
    /// Advances; `valid()` turns false past the last entry.
    Status Next();

    /// Seek(key) for a scan that will stop at `end_key` (inclusive): the
    /// iterator learns the upcoming leaves from the internal nodes (exact
    /// page identities, never guesses) and offers them to the buffer pool
    /// as read-ahead while the scan walks the leaf chain, each hint
    /// reaching BufferPool::kReadaheadPages leaves ahead (DESIGN.md §9).
    /// Identical to Seek() when prefetch is disabled.
    Status SeekRange(uint64_t key, uint64_t end_key);
    /// Seek(key) that also offers the leaves of `upcoming[0..n)` (sorted
    /// ascending, all >= key) as read-ahead during the descent.
    Status SeekHinted(uint64_t key, const uint64_t* upcoming, size_t n);
    /// SeekForward(key) whose re-descents hint `upcoming` like SeekHinted.
    Status SeekForwardHinted(uint64_t key, const uint64_t* upcoming,
                             size_t n);

    bool valid() const { return valid_; }
    uint64_t key() const;
    std::string_view value() const;

   private:
    Status SkipDeletedForward();
    /// Chain-walk hook of a SeekRange scan: hints the window after `next`
    /// and notices when the precomputed leaf list goes stale.
    void MaybeHintChain(PageId next);
    /// Recomputes the upcoming-leaf list from the internal level for the
    /// (just loaded, non-empty) current leaf, then hints the first window.
    Status RefillRangeHints();

    const BPlusTree* tree_;
    PageGuard guard_;
    uint16_t slot_ = 0;
    bool valid_ = false;

    // SeekRange state (inert unless range_mode_).
    bool range_mode_ = false;
    bool refill_pending_ = false;
    uint64_t end_key_ = 0;
    std::vector<PageId> upcoming_leaves_;
    size_t upcoming_pos_ = 0;
  };

  Iterator NewIterator() const { return Iterator(this); }

 private:
  friend class Iterator;

  // Internal node layout:
  //   aux == kInternalMarker
  //   u16 count      @ 8
  //   u32 leftmost   @ 12
  //   entries        @ 16: count * (u64 key, u32 child)
  // Subtree `child[i]` holds keys >= key[i]; `leftmost` holds keys < key[0].
  static constexpr uint32_t kInternalMarker = 0x1e7e4a11;
  static constexpr uint32_t kLeafMarker = 0x1eafbeef;
  static constexpr uint32_t kInternalHeader = 16;
  static constexpr uint32_t kInternalEntrySize = 12;
  static constexpr uint32_t kInternalCapacity =
      (kPageSize - kInternalHeader) / kInternalEntrySize;

  struct PathEntry {
    PageId pid;
    uint16_t child_index;  // index into (leftmost, entries...) == entry idx+1
  };

  static uint64_t LeafKeyAt(const SlottedPage& sp, uint16_t slot);
  static std::string_view LeafValueAt(const SlottedPage& sp, uint16_t slot);
  /// First slot with key >= `key` (among live slots).
  static uint16_t LeafLowerBound(const SlottedPage& sp, uint64_t key);

  static uint16_t InternalCount(const Page& p);
  static void SetInternalCount(Page* p, uint16_t n);
  static PageId InternalChild(const Page& p, uint16_t index);  // 0 = leftmost
  static uint64_t InternalKey(const Page& p, uint16_t entry);
  static void InternalSet(Page* p, uint16_t entry, uint64_t key, PageId child);
  static void SetLeftmost(Page* p, PageId child);
  /// Child index to follow for `key`.
  static uint16_t InternalSearch(const Page& p, uint64_t key);

  Status DescendToLeaf(uint64_t key, PageGuard* leaf,
                       std::vector<PathEntry>* path) const;
  /// DescendToLeaf that, at the last internal level, offers the target
  /// leaf plus the leaves holding `upcoming[0..n)` (sorted, >= key) as one
  /// read-ahead batch. Falls back to a plain descent when prefetch is off.
  Status DescendToLeafProbe(uint64_t key, const uint64_t* upcoming, size_t n,
                            PageGuard* leaf) const;
  /// DescendToLeafProbe for a range scan: collects into `siblings` every
  /// later child of the last internal node whose key range intersects
  /// [key, end_key] (uncapped — the scan consumes them window by window)
  /// and hints the first window.
  Status DescendToLeafRange(uint64_t key, uint64_t end_key,
                            std::vector<PageId>* siblings,
                            PageGuard* leaf) const;
  Status InsertIntoParent(std::vector<PathEntry>* path, uint64_t sep_key,
                          PageId new_child);
  Status SplitLeafAndInsert(PageGuard* leaf, uint64_t key,
                            std::string_view value,
                            std::vector<PathEntry>* path);

  BufferPool* pool_ = nullptr;
  PageId root_ = kInvalidPageId;
  PageId first_leaf_ = kInvalidPageId;
  Stats stats_;
};

}  // namespace objrep

#endif  // OBJREP_ACCESS_BTREE_H_
