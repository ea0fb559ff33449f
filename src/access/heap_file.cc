#include "access/heap_file.h"

namespace objrep {

Status HeapFile::Create(BufferPool* pool, HeapFile* out) {
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool->NewPage(&guard));
  SlottedPage sp(guard.page());
  sp.Init();
  guard.MarkDirty();
  *out = HeapFile(pool, guard.page_id(), guard.page_id(), 1);
  return Status::OK();
}

Status HeapFile::Append(std::string_view rec, Rid* rid) {
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool_->FetchPage(last_page_, &guard));
  SlottedPage sp(guard.page());
  uint16_t slot = sp.Insert(rec);
  if (slot != SlottedPage::kInvalidSlot) {
    guard.MarkDirty();
    if (rid != nullptr) *rid = Rid{last_page_, slot};
    return Status::OK();
  }
  // Tail page full: extend the chain.
  PageGuard fresh;
  OBJREP_RETURN_NOT_OK(pool_->NewPage(&fresh));
  SlottedPage nsp(fresh.page());
  nsp.Init();
  slot = nsp.Insert(rec);
  if (slot == SlottedPage::kInvalidSlot) {
    return Status::NoSpace("record larger than a page");
  }
  fresh.MarkDirty();
  sp.set_next_page(fresh.page_id());
  guard.MarkDirty();
  last_page_ = fresh.page_id();
  ++num_pages_;
  if (rid != nullptr) *rid = Rid{last_page_, slot};
  return Status::OK();
}

Status HeapFile::Get(const Rid& rid, std::string* out) const {
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool_->FetchPage(rid.page_id, &guard));
  SlottedPage sp(guard.page());
  std::string_view rec = sp.Get(rid.slot);
  if (rec.empty() && sp.IsDeleted(rid.slot)) {
    return Status::NotFound("record deleted");
  }
  out->assign(rec);
  return Status::OK();
}

Status HeapFile::UpdateInPlace(const Rid& rid, std::string_view rec) {
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool_->FetchPage(rid.page_id, &guard));
  SlottedPage sp(guard.page());
  if (!sp.UpdateInPlace(rid.slot, rec)) {
    return Status::InvalidArgument("in-place update size mismatch");
  }
  guard.MarkDirty();
  return Status::OK();
}

HeapFile::Iterator::Iterator(BufferPool* pool, PageId first_page)
    : pool_(pool), current_pid_(first_page) {
  Status s = LoadPage(first_page);
  if (s.ok()) {
    s = Advance();
  }
  valid_ = s.ok() && valid_;
}

Status HeapFile::Iterator::LoadPage(PageId pid) {
  OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard_));
  current_pid_ = pid;
  slot_ = 0;
  SlottedPage sp(guard_.page());
  num_slots_ = sp.num_slots();
  started_ = false;
  return Status::OK();
}

Status HeapFile::Iterator::Advance() {
  for (;;) {
    SlottedPage sp(guard_.page());
    uint16_t next_slot = started_ ? static_cast<uint16_t>(slot_ + 1) : 0;
    while (next_slot < num_slots_ && sp.IsDeleted(next_slot)) {
      ++next_slot;
    }
    if (next_slot < num_slots_) {
      slot_ = next_slot;
      started_ = true;
      rec_ = sp.Get(slot_);
      valid_ = true;
      return Status::OK();
    }
    PageId next = sp.next_page();
    if (next == kInvalidPageId) {
      valid_ = false;
      guard_.Release();
      return Status::OK();
    }
    OBJREP_RETURN_NOT_OK(LoadPage(next));
  }
}

Status HeapFile::Iterator::Next() {
  if (!valid_) return Status::OK();
  return Advance();
}

}  // namespace objrep
