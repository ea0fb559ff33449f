// Static ISAM index: u64 key -> u64 payload.
//
// The paper keeps the index on ClusterRel.OID "as an isam structure"
// because the clustered relation sees no inserts or deletes during a run.
// The structure is a packed, immutable multi-level index built once from
// sorted pairs; lookups descend height pages (upper levels are hot in the
// buffer pool, so a probe typically costs one leaf I/O).
#ifndef OBJREP_ACCESS_ISAM_H_
#define OBJREP_ACCESS_ISAM_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

class IsamIndex {
 public:
  struct Entry {
    uint64_t key;
    uint64_t payload;
  };

  /// On-page bytes per entry. The INGRES isam the paper used keys on a
  /// char-encoded OID plus a TID and per-entry overhead — around 32 bytes
  /// per entry — so the index is a substantial on-disk object that
  /// competes for the 100-page buffer (DESIGN.md §2). The first 16 bytes
  /// hold the (key, payload) pair; the rest is padding.
  static constexpr uint32_t kEntryBytes = 32;

  IsamIndex() = default;

  /// Builds the index from entries sorted by strictly increasing key.
  static Status Build(BufferPool* pool, const std::vector<Entry>& entries,
                      IsamIndex* out);

  /// Point lookup; NotFound if absent.
  Status Lookup(uint64_t key, uint64_t* payload) const;

  uint32_t height() const { return height_; }
  uint32_t leaf_pages() const { return leaf_pages_; }
  uint32_t index_pages() const { return index_pages_; }

 private:
  // Page layout (both levels):
  //   u16 count @ 0, entries @ 8: count * kEntryBytes bytes, of which the
  //   first 16 are (u64 key, u64 value) and the rest is INGRES-style
  //   overhead padding.
  // In index pages the value is a child PageId widened to u64; entry i
  // covers keys >= key[i] (entry 0's key is the level's minimum).
  static constexpr uint32_t kHeader = 8;

  uint16_t Count(const Page& p) const;
  Entry At(const Page& p, uint16_t i) const;
  /// Index of the last entry with key <= `key`, or count if key < all.
  uint16_t UpperBound(const Page& p, uint64_t key) const;

  BufferPool* pool_ = nullptr;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint32_t leaf_pages_ = 0;
  uint32_t index_pages_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_ACCESS_ISAM_H_
