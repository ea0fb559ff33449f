#include "access/btree.h"

#include <algorithm>
#include <cstring>

#include "util/macros.h"

namespace objrep {

namespace {

// Leaf cell = [u64 key][value bytes].
std::string MakeLeafCell(uint64_t key, std::string_view value) {
  std::string cell;
  cell.reserve(8 + value.size());
  cell.append(reinterpret_cast<const char*>(&key), 8);
  cell.append(value);
  return cell;
}

}  // namespace

uint64_t BPlusTree::LeafKeyAt(const SlottedPage& sp, uint16_t slot) {
  std::string_view cell = sp.Get(slot);
  OBJREP_CHECK(cell.size() >= 8);
  uint64_t key;
  std::memcpy(&key, cell.data(), 8);
  return key;
}

std::string_view BPlusTree::LeafValueAt(const SlottedPage& sp, uint16_t slot) {
  std::string_view cell = sp.Get(slot);
  OBJREP_CHECK(cell.size() >= 8);
  return cell.substr(8);
}

uint16_t BPlusTree::LeafLowerBound(const SlottedPage& sp, uint64_t key) {
  // Slot array is maintained in key order with no interior deleted slots
  // (Delete uses RemoveAt), so plain binary search applies.
  uint16_t lo = 0, hi = sp.num_slots();
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (LeafKeyAt(sp, mid) < key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint16_t BPlusTree::InternalCount(const Page& p) {
  uint16_t v;
  std::memcpy(&v, p.data + 8, 2);
  return v;
}

void BPlusTree::SetInternalCount(Page* p, uint16_t n) {
  std::memcpy(p->data + 8, &n, 2);
}

PageId BPlusTree::InternalChild(const Page& p, uint16_t index) {
  if (index == 0) {
    PageId pid;
    std::memcpy(&pid, p.data + 12, 4);
    return pid;
  }
  PageId pid;
  std::memcpy(&pid,
              p.data + kInternalHeader +
                  (index - 1) * kInternalEntrySize + 8,
              4);
  return pid;
}

uint64_t BPlusTree::InternalKey(const Page& p, uint16_t entry) {
  uint64_t key;
  std::memcpy(&key, p.data + kInternalHeader + entry * kInternalEntrySize, 8);
  return key;
}

void BPlusTree::InternalSet(Page* p, uint16_t entry, uint64_t key,
                            PageId child) {
  char* base = p->data + kInternalHeader + entry * kInternalEntrySize;
  std::memcpy(base, &key, 8);
  std::memcpy(base + 8, &child, 4);
}

void BPlusTree::SetLeftmost(Page* p, PageId child) {
  std::memcpy(p->data + 12, &child, 4);
}

uint16_t BPlusTree::InternalSearch(const Page& p, uint64_t key) {
  // Returns the child index (0 == leftmost) whose subtree may contain `key`:
  // the largest i such that key >= key[i-1], i.e. upper_bound.
  uint16_t count = InternalCount(p);
  uint16_t lo = 0, hi = count;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (InternalKey(p, mid) <= key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;  // child index: 0..count
}

Status BPlusTree::Create(BufferPool* pool, BPlusTree* out) {
  PageGuard guard;
  OBJREP_RETURN_NOT_OK(pool->NewPage(&guard));
  SlottedPage sp(guard.page());
  sp.Init();
  sp.set_aux(kLeafMarker);
  guard.MarkDirty();
  out->pool_ = pool;
  out->root_ = guard.page_id();
  out->first_leaf_ = guard.page_id();
  out->stats_ = Stats{1, 1, 0, 0};
  return Status::OK();
}

Status BPlusTree::BulkLoad(BufferPool* pool,
                           const std::vector<Entry>& entries,
                           BPlusTree* out) {
  size_t i = 0;
  return BulkLoad(
      pool,
      [&](uint64_t* key, std::string_view* value) {
        if (i == entries.size()) return false;
        *key = entries[i].key;
        *value = entries[i++].value;
        return true;
      },
      out);
}

Status BPlusTree::BulkLoad(BufferPool* pool, const EntrySource& next,
                           BPlusTree* out) {
  uint64_t key;
  std::string_view value;
  if (!next(&key, &value)) {
    return Create(pool, out);
  }

  out->pool_ = pool;
  out->stats_ = Stats{};

  // --- Build the leaf level. ---
  // A page is full once used cell space would exceed the usable bytes.
  const uint32_t budget = kPageSize - 64;  // conservative slack for header

  std::vector<std::pair<uint64_t, PageId>> level;  // (first key, page)
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(pool->NewPage(&leaf));
  SlottedPage sp(leaf.page());
  sp.Init();
  sp.set_aux(kLeafMarker);
  leaf.MarkDirty();
  out->first_leaf_ = leaf.page_id();
  uint32_t used = 0;
  uint64_t page_first_key = key;
  bool page_empty = true;
  ++out->stats_.leaf_pages;

  // MakeLeafCell's layout, assembled in one reused buffer.
  std::string cell;
  for (;;) {
    cell.assign(reinterpret_cast<const char*>(&key), 8);
    cell.append(value);
    uint32_t cost = static_cast<uint32_t>(cell.size()) + 4;
    if (!page_empty && (used + cost > budget ||
                        cell.size() > sp.FreeSpace())) {
      // Seal this leaf, start the next one.
      level.emplace_back(page_first_key, leaf.page_id());
      PageGuard next_leaf;
      OBJREP_RETURN_NOT_OK(pool->NewPage(&next_leaf));
      SlottedPage nsp(next_leaf.page());
      nsp.Init();
      nsp.set_aux(kLeafMarker);
      next_leaf.MarkDirty();
      sp.set_next_page(next_leaf.page_id());
      leaf = std::move(next_leaf);
      sp = SlottedPage(leaf.page());
      used = 0;
      page_empty = true;
      ++out->stats_.leaf_pages;
    }
    if (page_empty) {
      page_first_key = key;
      page_empty = false;
    }
    uint16_t slot = sp.Insert(cell);
    if (slot == SlottedPage::kInvalidSlot) {
      return Status::NoSpace("bulk load: record larger than a page");
    }
    used += cost;
    ++out->stats_.num_entries;
    const uint64_t prev_key = key;
    if (!next(&key, &value)) break;
    if (key <= prev_key) {
      return Status::InvalidArgument("bulk load input not strictly sorted");
    }
  }
  level.emplace_back(page_first_key, leaf.page_id());
  leaf.Release();

  // --- Build internal levels bottom-up. ---
  uint32_t height = 1;
  while (level.size() > 1) {
    std::vector<std::pair<uint64_t, PageId>> parent_level;
    size_t i = 0;
    while (i < level.size()) {
      size_t take =
          std::min<size_t>(kInternalCapacity + 1, level.size() - i);
      // An internal node holds `take` children => take-1 keys; avoid a
      // dangling single-child node at the end.
      if (level.size() - i - take == 1) {
        --take;
      }
      PageGuard node;
      OBJREP_RETURN_NOT_OK(pool->NewPage(&node));
      Page* p = node.page();
      std::memset(p->data, 0, kInternalHeader);
      uint32_t marker = kInternalMarker;
      std::memcpy(p->data + 4, &marker, 4);
      SetLeftmost(p, level[i].second);
      for (size_t j = 1; j < take; ++j) {
        InternalSet(p, static_cast<uint16_t>(j - 1), level[i + j].first,
                    level[i + j].second);
      }
      SetInternalCount(p, static_cast<uint16_t>(take - 1));
      node.MarkDirty();
      parent_level.emplace_back(level[i].first, node.page_id());
      ++out->stats_.internal_pages;
      i += take;
    }
    level.swap(parent_level);
    ++height;
  }
  out->root_ = level[0].second;
  out->stats_.height = height;
  return Status::OK();
}

Status BPlusTree::DescendToLeaf(uint64_t key, PageGuard* leaf,
                                std::vector<PathEntry>* path) const {
  PageId pid = root_;
  for (uint32_t depth = 1; depth < stats_.height; ++depth) {
    PageGuard guard;
    OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
    const Page& p = *guard.page();
    uint16_t child_index = InternalSearch(p, key);
    if (path != nullptr) {
      path->push_back(PathEntry{pid, child_index});
    }
    pid = InternalChild(p, child_index);
  }
  return pool_->FetchPage(pid, leaf);
}

Status BPlusTree::DescendToLeafProbe(uint64_t key, const uint64_t* upcoming,
                                     size_t n, PageGuard* leaf) const {
  if (!pool_->prefetch_enabled() || n == 0 || stats_.height < 2) {
    return DescendToLeaf(key, leaf, nullptr);
  }
  constexpr uint32_t cap = BufferPool::kReadaheadPages;
  PageId pid = root_;
  // Exclusive upper bound of the current subtree's key range, inherited
  // from the ancestors' separators. Needed at the leaf level: a probe for
  // a key past this bound re-descends from the root into the *next*
  // subtree, so hinting this node's last child for it would stage a page
  // the walk never reads (a §9 exactness violation).
  uint64_t subtree_end = UINT64_MAX;
  for (uint32_t depth = 1; depth < stats_.height; ++depth) {
    PageGuard guard;
    OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
    const Page& p = *guard.page();
    uint16_t child_index = InternalSearch(p, key);
    if (depth + 1 == stats_.height) {
      // The children are leaves. Batch the target leaf with the leaves the
      // upcoming (sorted) keys land in — identities read straight off this
      // node, so the batch is exact: every page in it is about to be
      // demand-fetched by the probe walk.
      uint16_t count = InternalCount(p);
      std::vector<PageId> hint;
      hint.reserve(cap);
      hint.push_back(InternalChild(p, child_index));
      size_t ki = 0;
      for (uint16_t j = child_index + 1; j <= count && hint.size() < cap;
           ++j) {
        uint64_t low = InternalKey(p, j - 1);
        while (ki < n && upcoming[ki] < low) ++ki;
        if (ki == n) break;
        uint64_t high = j == count ? subtree_end : InternalKey(p, j);
        if (upcoming[ki] < high) {
          hint.push_back(InternalChild(p, j));
        }
      }
      if (hint.size() > 1) {
        pool_->PrefetchHint(hint.data(), hint.size());
      }
    }
    if (child_index < InternalCount(p)) {
      subtree_end = InternalKey(p, child_index);
    }
    pid = InternalChild(p, child_index);
  }
  return pool_->FetchPage(pid, leaf);
}

Status BPlusTree::DescendToLeafRange(uint64_t key, uint64_t end_key,
                                     std::vector<PageId>* siblings,
                                     PageGuard* leaf) const {
  siblings->clear();
  PageId pid = root_;
  for (uint32_t depth = 1; depth < stats_.height; ++depth) {
    PageGuard guard;
    OBJREP_RETURN_NOT_OK(pool_->FetchPage(pid, &guard));
    const Page& p = *guard.page();
    uint16_t child_index = InternalSearch(p, key);
    if (depth + 1 == stats_.height) {
      uint16_t count = InternalCount(p);
      for (uint16_t j = child_index + 1; j <= count; ++j) {
        if (InternalKey(p, j - 1) > end_key) break;
        siblings->push_back(InternalChild(p, j));
      }
      // First read-ahead window: the target leaf plus its next scan-order
      // siblings, all certain to be read by a scan to end_key.
      if (!siblings->empty()) {
        constexpr size_t kWindow = BufferPool::kReadaheadPages;
        std::vector<PageId> hint;
        hint.reserve(kWindow);
        hint.push_back(InternalChild(p, child_index));
        for (size_t j = 0; j < siblings->size() && hint.size() < kWindow;
             ++j) {
          hint.push_back((*siblings)[j]);
        }
        pool_->PrefetchHint(hint.data(), hint.size());
      }
    }
    pid = InternalChild(p, child_index);
  }
  return pool_->FetchPage(pid, leaf);
}

void BPlusTree::HintLeavesForKeys(const uint64_t* keys, size_t n) const {
  if (!pool_->prefetch_enabled() || n == 0 || stats_.height < 2) return;
  constexpr uint32_t cap = BufferPool::kReadaheadPages;
  std::vector<PageId> hint;
  hint.reserve(cap);
  size_t ki = 0;
  while (ki < n && hint.size() < cap) {
    // Stampless resident-only descent to the leaf parent covering keys[ki],
    // tracking the subtree's exclusive upper bound so keys belonging to the
    // next subtree are never attributed to this node's last child.
    uint64_t subtree_end = UINT64_MAX;
    PageId pid = root_;
    PageGuard g;
    bool resident = true;
    for (uint32_t depth = 1; depth + 1 < stats_.height; ++depth) {
      if (!pool_->TryFetchResident(pid, &g)) {
        resident = false;
        break;
      }
      const Page& p = *g.page();
      uint16_t child_index = InternalSearch(p, keys[ki]);
      if (child_index < InternalCount(p)) {
        subtree_end = InternalKey(p, child_index);
      }
      pid = InternalChild(p, child_index);
    }
    if (!resident || !pool_->TryFetchResident(pid, &g)) break;
    const Page& p = *g.page();
    const uint16_t count = InternalCount(p);
    const size_t ki_before = ki;
    for (uint16_t j = InternalSearch(p, keys[ki]);
         j <= count && ki < n && hint.size() < cap; ++j) {
      uint64_t high = j == count ? subtree_end : InternalKey(p, j);
      bool any = false;
      while (ki < n && keys[ki] < high) {
        any = true;
        ++ki;
      }
      if (any) hint.push_back(InternalChild(p, j));
    }
    if (ki == ki_before) break;  // key >= subtree_end == UINT64_MAX
  }
  if (!hint.empty()) {
    pool_->PrefetchHint(hint.data(), hint.size());
  }
}

Status BPlusTree::Get(uint64_t key, std::string* value) const {
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  SlottedPage sp(leaf.page());
  uint16_t slot = LeafLowerBound(sp, key);
  if (slot >= sp.num_slots() || LeafKeyAt(sp, slot) != key) {
    return Status::NotFound();
  }
  value->assign(LeafValueAt(sp, slot));
  return Status::OK();
}

Status BPlusTree::UpdateInPlace(uint64_t key, std::string_view value) {
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  SlottedPage sp(leaf.page());
  uint16_t slot = LeafLowerBound(sp, key);
  if (slot >= sp.num_slots() || LeafKeyAt(sp, slot) != key) {
    return Status::NotFound();
  }
  std::string cell = MakeLeafCell(key, value);
  if (!sp.UpdateInPlace(slot, cell)) {
    return Status::InvalidArgument("in-place update size mismatch");
  }
  leaf.MarkDirty();
  return Status::OK();
}

Status BPlusTree::InsertIntoParent(std::vector<PathEntry>* path,
                                   uint64_t sep_key, PageId new_child) {
  while (true) {
    if (path->empty()) {
      // Split reached the root: grow the tree by one level.
      PageGuard node;
      OBJREP_RETURN_NOT_OK(pool_->NewPage(&node));
      Page* p = node.page();
      std::memset(p->data, 0, kInternalHeader);
      uint32_t marker = kInternalMarker;
      std::memcpy(p->data + 4, &marker, 4);
      SetLeftmost(p, root_);
      InternalSet(p, 0, sep_key, new_child);
      SetInternalCount(p, 1);
      node.MarkDirty();
      root_ = node.page_id();
      ++stats_.height;
      ++stats_.internal_pages;
      return Status::OK();
    }
    PathEntry pe = path->back();
    path->pop_back();
    PageGuard guard;
    OBJREP_RETURN_NOT_OK(pool_->FetchPage(pe.pid, &guard));
    Page* p = guard.page();
    uint16_t count = InternalCount(*p);
    if (count < kInternalCapacity) {
      // Shift entries at >= pe.child_index up by one and insert.
      for (uint16_t i = count; i > pe.child_index; --i) {
        InternalSet(p, i, InternalKey(*p, i - 1), InternalChild(*p, i));
      }
      InternalSet(p, pe.child_index, sep_key, new_child);
      SetInternalCount(p, static_cast<uint16_t>(count + 1));
      guard.MarkDirty();
      return Status::OK();
    }
    // Split the internal node. Build the combined entry list in memory.
    struct Ent { uint64_t key; PageId child; };
    std::vector<Ent> ents;
    ents.reserve(count + 1);
    for (uint16_t i = 0; i < count; ++i) {
      ents.push_back(Ent{InternalKey(*p, i), InternalChild(*p, i + 1)});
    }
    ents.insert(ents.begin() + pe.child_index, Ent{sep_key, new_child});
    PageId leftmost = InternalChild(*p, 0);

    uint16_t total = static_cast<uint16_t>(ents.size());
    uint16_t left_n = total / 2;          // entries staying left
    uint64_t up_key = ents[left_n].key;   // pushed to the parent
    PageId right_leftmost = ents[left_n].child;

    // Rewrite the left node.
    SetLeftmost(p, leftmost);
    for (uint16_t i = 0; i < left_n; ++i) {
      InternalSet(p, i, ents[i].key, ents[i].child);
    }
    SetInternalCount(p, left_n);
    guard.MarkDirty();

    // Build the right node.
    PageGuard right;
    OBJREP_RETURN_NOT_OK(pool_->NewPage(&right));
    Page* rp = right.page();
    std::memset(rp->data, 0, kInternalHeader);
    uint32_t marker = kInternalMarker;
    std::memcpy(rp->data + 4, &marker, 4);
    SetLeftmost(rp, right_leftmost);
    uint16_t right_n = static_cast<uint16_t>(total - left_n - 1);
    for (uint16_t i = 0; i < right_n; ++i) {
      InternalSet(rp, i, ents[left_n + 1 + i].key, ents[left_n + 1 + i].child);
    }
    SetInternalCount(rp, right_n);
    right.MarkDirty();
    ++stats_.internal_pages;

    sep_key = up_key;
    new_child = right.page_id();
    // Loop: insert (sep_key, new_child) into the next ancestor.
  }
}

Status BPlusTree::SplitLeafAndInsert(PageGuard* leaf, uint64_t key,
                                     std::string_view value,
                                     std::vector<PathEntry>* path) {
  SlottedPage sp(leaf->page());
  // Materialize all cells plus the new one, in key order.
  struct Cell { uint64_t key; std::string cell; };
  std::vector<Cell> cells;
  uint16_t n = sp.num_slots();
  cells.reserve(n + 1);
  for (uint16_t i = 0; i < n; ++i) {
    std::string_view c = sp.Get(i);
    cells.push_back(Cell{LeafKeyAt(sp, i), std::string(c)});
  }
  std::string new_cell = MakeLeafCell(key, value);
  auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const Cell& c, uint64_t k) { return c.key < k; });
  cells.insert(it, Cell{key, std::move(new_cell)});

  // Split by bytes, half-and-half.
  size_t total_bytes = 0;
  for (const Cell& c : cells) total_bytes += c.cell.size() + 4;
  size_t left_bytes = 0;
  size_t split = 0;
  while (split < cells.size() - 1 && left_bytes < total_bytes / 2) {
    left_bytes += cells[split].cell.size() + 4;
    ++split;
  }

  PageId old_next = sp.next_page();
  // Rewrite the left page.
  sp.Init();
  sp.set_aux(kLeafMarker);
  for (size_t i = 0; i < split; ++i) {
    OBJREP_CHECK(sp.Insert(cells[i].cell) != SlottedPage::kInvalidSlot);
  }
  // Build the right page.
  PageGuard right;
  OBJREP_RETURN_NOT_OK(pool_->NewPage(&right));
  SlottedPage rsp(right.page());
  rsp.Init();
  rsp.set_aux(kLeafMarker);
  for (size_t i = split; i < cells.size(); ++i) {
    OBJREP_CHECK(rsp.Insert(cells[i].cell) != SlottedPage::kInvalidSlot);
  }
  rsp.set_next_page(old_next);
  sp.set_next_page(right.page_id());
  leaf->MarkDirty();
  right.MarkDirty();
  ++stats_.leaf_pages;

  uint64_t sep_key = cells[split].key;
  PageId right_pid = right.page_id();
  right.Release();
  leaf->Release();
  return InsertIntoParent(path, sep_key, right_pid);
}

Status BPlusTree::Insert(uint64_t key, std::string_view value) {
  std::vector<PathEntry> path;
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(DescendToLeaf(key, &leaf, &path));
  SlottedPage sp(leaf.page());
  uint16_t pos = LeafLowerBound(sp, key);
  if (pos < sp.num_slots() && LeafKeyAt(sp, pos) == key) {
    return Status::InvalidArgument("duplicate key");
  }
  std::string cell = MakeLeafCell(key, value);
  if (sp.InsertAt(pos, cell)) {
    leaf.MarkDirty();
    ++stats_.num_entries;
    return Status::OK();
  }
  // Try reclaiming dead cell space before splitting.
  sp.Compact();
  pos = LeafLowerBound(sp, key);
  if (sp.InsertAt(pos, cell)) {
    leaf.MarkDirty();
    ++stats_.num_entries;
    return Status::OK();
  }
  OBJREP_RETURN_NOT_OK(SplitLeafAndInsert(&leaf, key, value, &path));
  ++stats_.num_entries;
  return Status::OK();
}

Status BPlusTree::Delete(uint64_t key) {
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(DescendToLeaf(key, &leaf, nullptr));
  SlottedPage sp(leaf.page());
  uint16_t slot = LeafLowerBound(sp, key);
  if (slot >= sp.num_slots() || LeafKeyAt(sp, slot) != key) {
    return Status::NotFound();
  }
  sp.RemoveAt(slot);
  leaf.MarkDirty();
  --stats_.num_entries;
  return Status::OK();
}

Status BPlusTree::Iterator::Seek(uint64_t key) {
  range_mode_ = false;
  refill_pending_ = false;
  valid_ = false;
  guard_.Release();
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(tree_->DescendToLeaf(key, &leaf, nullptr));
  guard_ = std::move(leaf);
  SlottedPage sp(guard_.page());
  slot_ = LeafLowerBound(sp, key);
  valid_ = true;
  return SkipDeletedForward();
}

Status BPlusTree::Iterator::SeekRange(uint64_t key, uint64_t end_key) {
  range_mode_ = false;
  refill_pending_ = false;
  upcoming_leaves_.clear();
  upcoming_pos_ = 0;
  if (!tree_->pool_->prefetch_enabled() || tree_->stats_.height < 2) {
    return Seek(key);
  }
  range_mode_ = true;
  end_key_ = end_key;
  valid_ = false;
  guard_.Release();
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(
      tree_->DescendToLeafRange(key, end_key, &upcoming_leaves_, &leaf));
  guard_ = std::move(leaf);
  SlottedPage sp(guard_.page());
  slot_ = LeafLowerBound(sp, key);
  valid_ = true;
  return SkipDeletedForward();
}

Status BPlusTree::Iterator::SeekHinted(uint64_t key, const uint64_t* upcoming,
                                       size_t n) {
  range_mode_ = false;
  refill_pending_ = false;
  valid_ = false;
  guard_.Release();
  PageGuard leaf;
  OBJREP_RETURN_NOT_OK(tree_->DescendToLeafProbe(key, upcoming, n, &leaf));
  guard_ = std::move(leaf);
  SlottedPage sp(guard_.page());
  slot_ = LeafLowerBound(sp, key);
  valid_ = true;
  return SkipDeletedForward();
}

Status BPlusTree::Iterator::SeekForwardHinted(uint64_t key,
                                              const uint64_t* upcoming,
                                              size_t n) {
  if (!valid_) return Status::OK();
  SlottedPage sp(guard_.page());
  uint16_t cnt = sp.num_slots();
  if (slot_ < cnt && LeafKeyAt(sp, slot_) >= key) {
    return Status::OK();  // already positioned
  }
  if (cnt > 0 && LeafKeyAt(sp, static_cast<uint16_t>(cnt - 1)) >= key) {
    slot_ = LeafLowerBound(sp, key);
    return SkipDeletedForward();
  }
  return SeekHinted(key, upcoming, n);
}

void BPlusTree::Iterator::MaybeHintChain(PageId next) {
  if (upcoming_pos_ < upcoming_leaves_.size() &&
      upcoming_leaves_[upcoming_pos_] == next) {
    // `next` is the expected sibling: slide the read-ahead window past it.
    ++upcoming_pos_;
    size_t len = std::min<size_t>(BufferPool::kReadaheadPages,
                                  upcoming_leaves_.size() - upcoming_pos_);
    if (len > 0) {
      tree_->pool_->PrefetchHint(upcoming_leaves_.data() + upcoming_pos_,
                                 len);
    }
  } else {
    // List exhausted (crossing into the next internal node's subtree) or
    // stale (tree mutated): rebuild it once the next leaf is loaded.
    upcoming_leaves_.clear();
    upcoming_pos_ = 0;
    refill_pending_ = true;
  }
}

Status BPlusTree::Iterator::RefillRangeHints() {
  refill_pending_ = false;
  SlottedPage sp(guard_.page());
  if (sp.num_slots() == 0) {
    refill_pending_ = true;  // empty leaf: retry on the next one
    return Status::OK();
  }
  uint64_t key0 = LeafKeyAt(sp, 0);
  if (key0 > end_key_) {
    range_mode_ = false;  // past the range: the scan is about to stop
    return Status::OK();
  }
  // Re-walk the internal levels to find this leaf's scan-order siblings.
  // Resident-only pins: the walk must never add I/O of its own, so if an
  // internal node fell out of the buffer we simply skip this window and
  // retry at the next leaf crossing.
  upcoming_leaves_.clear();
  upcoming_pos_ = 0;
  PageId pid = tree_->root_;
  for (uint32_t depth = 1; depth < tree_->stats_.height; ++depth) {
    PageGuard g;
    if (!tree_->pool_->TryFetchResident(pid, &g)) {
      return Status::OK();
    }
    const Page& p = *g.page();
    uint16_t child_index = InternalSearch(p, key0);
    if (depth + 1 == tree_->stats_.height) {
      uint16_t count = InternalCount(p);
      for (uint16_t j = child_index + 1; j <= count; ++j) {
        if (InternalKey(p, j - 1) > end_key_) break;
        upcoming_leaves_.push_back(InternalChild(p, j));
      }
    }
    pid = InternalChild(p, child_index);
  }
  size_t len =
      std::min<size_t>(BufferPool::kReadaheadPages, upcoming_leaves_.size());
  if (len > 0) {
    tree_->pool_->PrefetchHint(upcoming_leaves_.data(), len);
  }
  return Status::OK();
}

Status BPlusTree::Iterator::SeekForward(uint64_t key) {
  if (!valid_) return Status::OK();
  SlottedPage sp(guard_.page());
  uint16_t n = sp.num_slots();
  if (slot_ < n && LeafKeyAt(sp, slot_) >= key) {
    return Status::OK();  // already positioned
  }
  if (n > 0 && LeafKeyAt(sp, static_cast<uint16_t>(n - 1)) >= key) {
    // Target is on this leaf: binary search in place.
    slot_ = LeafLowerBound(sp, key);
    return SkipDeletedForward();
  }
  // Beyond this leaf: re-descend. For a dense stream this happens once per
  // leaf and the internal pages are buffer-hot, so it costs the same one
  // leaf read that stepping the chain would; for a sparse stream it skips
  // the untouched leaves entirely.
  return Seek(key);
}

Status BPlusTree::Iterator::SeekToFirst() {
  valid_ = false;
  guard_.Release();
  OBJREP_RETURN_NOT_OK(tree_->pool_->FetchPage(tree_->first_leaf_, &guard_));
  slot_ = 0;
  valid_ = true;
  return SkipDeletedForward();
}

Status BPlusTree::Iterator::SkipDeletedForward() {
  // Moves to the first existing slot at or after (guard_, slot_), following
  // the leaf chain; clears valid_ at end of tree.
  while (true) {
    SlottedPage sp(guard_.page());
    if (slot_ < sp.num_slots()) {
      return Status::OK();
    }
    PageId next = sp.next_page();
    if (next == kInvalidPageId) {
      valid_ = false;
      guard_.Release();
      return Status::OK();
    }
    if (range_mode_) {
      MaybeHintChain(next);
    }
    OBJREP_RETURN_NOT_OK(tree_->pool_->FetchPage(next, &guard_));
    slot_ = 0;
    if (range_mode_ && refill_pending_) {
      OBJREP_RETURN_NOT_OK(RefillRangeHints());
    }
  }
}

Status BPlusTree::Iterator::Next() {
  if (!valid_) return Status::OK();
  ++slot_;
  return SkipDeletedForward();
}

uint64_t BPlusTree::Iterator::key() const {
  SlottedPage sp(const_cast<Page*>(guard_.page()));
  return LeafKeyAt(sp, slot_);
}

std::string_view BPlusTree::Iterator::value() const {
  SlottedPage sp(const_cast<Page*>(guard_.page()));
  return LeafValueAt(sp, slot_);
}

}  // namespace objrep
