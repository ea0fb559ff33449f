// Secondary index: non-key int32 attribute -> primary keys.
//
// INGRES supported secondary indexes on non-key attributes; the paper's
// stored procedural queries ("retrieve persons where person.age >= 60")
// run as full scans without one and as index lookups with one. The index
// is a B+-tree over the composite key (attribute value ⧺ primary key), so
// duplicates are naturally ordered and a value lookup is a range scan.
#ifndef OBJREP_ACCESS_SECONDARY_INDEX_H_
#define OBJREP_ACCESS_SECONDARY_INDEX_H_

#include <cstdint>
#include <vector>

#include "access/btree.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

class SecondaryIndex {
 public:
  struct Entry {
    int32_t attr_value;
    uint32_t primary_key;
  };

  SecondaryIndex() = default;

  /// Builds the index from (value, key) pairs in any order.
  static Status Build(BufferPool* pool, std::vector<Entry> entries,
                      SecondaryIndex* out);

  /// Primary keys of all rows with attr == `value`, ascending.
  Status LookupEqual(int32_t value, std::vector<uint32_t>* keys) const;

  /// Primary keys of all rows with lo <= attr <= hi, in (attr, key) order.
  Status LookupRange(int32_t lo, int32_t hi,
                     std::vector<uint32_t>* keys) const;

  /// Maintenance for in-place attribute updates.
  Status OnUpdate(int32_t old_value, int32_t new_value, uint32_t primary_key);

  uint32_t leaf_pages() const { return tree_.stats().leaf_pages; }

 private:
  /// Composite key: biased attribute value in the high half so signed
  /// int32 order matches unsigned u64 order.
  static uint64_t CompositeKey(int32_t value, uint32_t primary_key) {
    uint64_t biased =
        static_cast<uint64_t>(static_cast<int64_t>(value) + 0x80000000LL);
    return (biased << 32) | primary_key;
  }

  BPlusTree tree_;
};

}  // namespace objrep

#endif  // OBJREP_ACCESS_SECONDARY_INDEX_H_
