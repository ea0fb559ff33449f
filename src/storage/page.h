// Fixed-size page abstraction.
//
// The paper's substrate is commercial INGRES with 2 KB data pages; every
// cost in the study is a count of page reads/writes. We keep the page a
// dumb byte container — structure (slots, B-tree nodes, hash buckets) is
// imposed by the access methods.
#ifndef OBJREP_STORAGE_PAGE_H_
#define OBJREP_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

namespace objrep {

/// INGRES-era data page size (bytes). See DESIGN.md §6.
inline constexpr uint32_t kPageSize = 2048;

using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// A raw page of kPageSize bytes.
struct Page {
  char data[kPageSize];

  void Zero() { std::memset(data, 0, kPageSize); }
};

static_assert(sizeof(Page) == kPageSize, "Page must be exactly kPageSize");

}  // namespace objrep

#endif  // OBJREP_STORAGE_PAGE_H_
