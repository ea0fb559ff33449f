#include "access/isam.h"

#include <cstring>

#include "util/macros.h"

namespace objrep {

uint16_t IsamIndex::Count(const Page& p) const {
  uint16_t v;
  std::memcpy(&v, p.data, 2);
  return v;
}

IsamIndex::Entry IsamIndex::At(const Page& p, uint16_t i) const {
  Entry e;
  std::memcpy(&e.key, p.data + kHeader + i * kEntryBytes, 8);
  std::memcpy(&e.payload, p.data + kHeader + i * kEntryBytes + 8, 8);
  return e;
}

uint16_t IsamIndex::UpperBound(const Page& p, uint64_t key) const {
  uint16_t lo = 0, hi = Count(p);
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (At(p, mid).key <= key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;  // number of entries with key <= `key`
}

Status IsamIndex::Build(BufferPool* pool, const std::vector<Entry>& entries,
                        IsamIndex* out) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].key >= entries[i].key) {
      return Status::InvalidArgument("isam build input not strictly sorted");
    }
  }
  out->pool_ = pool;
  out->leaf_pages_ = 0;
  out->index_pages_ = 0;
  const uint32_t capacity = (kPageSize - kHeader) / kEntryBytes;

  auto write_level = [pool, capacity](
                         const std::vector<Entry>& level_entries,
                         std::vector<Entry>* parent,
                         uint32_t* pages) -> Status {
    parent->clear();
    size_t i = 0;
    if (level_entries.empty()) {
      // Materialize one empty page so lookups have somewhere to land.
      PageGuard guard;
      OBJREP_RETURN_NOT_OK(pool->NewPage(&guard));
      std::memset(guard.page()->data, 0, kHeader);
      guard.MarkDirty();
      parent->push_back(Entry{0, guard.page_id()});
      ++*pages;
      return Status::OK();
    }
    while (i < level_entries.size()) {
      size_t take = std::min<size_t>(capacity, level_entries.size() - i);
      PageGuard guard;
      OBJREP_RETURN_NOT_OK(pool->NewPage(&guard));
      Page* p = guard.page();
      std::memset(p->data, 0, kHeader);
      uint16_t n = static_cast<uint16_t>(take);
      std::memcpy(p->data, &n, 2);
      for (size_t j = 0; j < take; ++j) {
        const Entry& e = level_entries[i + j];
        std::memcpy(p->data + kHeader + j * kEntryBytes, &e.key, 8);
        std::memcpy(p->data + kHeader + j * kEntryBytes + 8, &e.payload, 8);
      }
      guard.MarkDirty();
      parent->push_back(Entry{level_entries[i].key, guard.page_id()});
      ++*pages;
      i += take;
    }
    return Status::OK();
  };

  std::vector<Entry> level;
  OBJREP_RETURN_NOT_OK(write_level(entries, &level, &out->leaf_pages_));
  out->height_ = 1;
  while (level.size() > 1) {
    std::vector<Entry> parent;
    OBJREP_RETURN_NOT_OK(write_level(level, &parent, &out->index_pages_));
    level.swap(parent);
    ++out->height_;
  }
  out->root_ = static_cast<PageId>(level[0].payload);
  return Status::OK();
}

Status IsamIndex::Lookup(uint64_t key, uint64_t* payload) const {
  OBJREP_CHECK(pool_ != nullptr);
  PageId pid = root_;
  for (uint32_t depth = 1; depth < height_; ++depth) {
    PageGuard guard;
    OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
    const Page& p = *guard.page();
    uint16_t ub = UpperBound(p, key);
    if (ub == 0) return Status::NotFound();  // key below the level minimum
    pid = static_cast<PageId>(At(p, static_cast<uint16_t>(ub - 1)).payload);
  }
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
  const Page& p = *guard.page();
  uint16_t ub = UpperBound(p, key);
  if (ub == 0) return Status::NotFound();
  Entry e = At(p, static_cast<uint16_t>(ub - 1));
  if (e.key != key) return Status::NotFound();
  *payload = e.payload;
  return Status::OK();
}

}  // namespace objrep
