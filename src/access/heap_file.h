// Unordered heap file: a chain of slotted pages with append-at-tail insert.
//
// Used for temporary relations, the value-based representation (ValueRel),
// and anywhere a sequential-scan-only structure suffices.
#ifndef OBJREP_ACCESS_HEAP_FILE_H_
#define OBJREP_ACCESS_HEAP_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "access/slotted_page.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

/// Record address within a heap file.
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool operator==(const Rid&) const = default;
};

class HeapFile {
 public:
  /// Creates an empty heap file (allocates its first page).
  static Status Create(BufferPool* pool, HeapFile* out);

  HeapFile() = default;

  /// Appends a record, growing the chain as needed.
  Status Append(std::string_view rec, Rid* rid = nullptr);

  /// Reads the record at `rid` into `out`.
  Status Get(const Rid& rid, std::string* out) const;

  /// In-place same-size update.
  Status UpdateInPlace(const Rid& rid, std::string_view rec);

  PageId first_page() const { return first_page_; }
  uint32_t num_pages() const { return num_pages_; }

  /// Forward scan over all live records.
  class Iterator {
   public:
    Iterator(BufferPool* pool, PageId first_page);

    bool valid() const { return valid_; }
    std::string_view record() const { return rec_; }
    Rid rid() const { return Rid{current_pid_, slot_}; }

    /// Advances to the next live record.
    Status Next();

   private:
    Status LoadPage(PageId pid);
    Status Advance();

    BufferPool* pool_;
    PageGuard guard_;
    PageId current_pid_ = kInvalidPageId;
    uint16_t slot_ = 0;
    uint16_t num_slots_ = 0;
    bool valid_ = false;
    bool started_ = false;
    std::string_view rec_;
  };

  Iterator Scan() const { return Iterator(pool_, first_page_); }

 private:
  HeapFile(BufferPool* pool, PageId first, PageId last, uint32_t n)
      : pool_(pool), first_page_(first), last_page_(last), num_pages_(n) {}

  BufferPool* pool_ = nullptr;
  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  uint32_t num_pages_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_ACCESS_HEAP_FILE_H_
