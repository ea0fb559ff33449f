#include "access/secondary_index.h"

#include <algorithm>

namespace objrep {

Status SecondaryIndex::Build(BufferPool* pool, std::vector<Entry> entries,
                             SecondaryIndex* out) {
  std::vector<BPlusTree::Entry> tree_entries;
  tree_entries.reserve(entries.size());
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return CompositeKey(a.attr_value, a.primary_key) <
                     CompositeKey(b.attr_value, b.primary_key);
            });
  for (const Entry& e : entries) {
    tree_entries.push_back(
        BPlusTree::Entry{CompositeKey(e.attr_value, e.primary_key), ""});
  }
  return BPlusTree::BulkLoad(pool, tree_entries, &out->tree_);
}

Status SecondaryIndex::LookupEqual(int32_t value,
                                   std::vector<uint32_t>* keys) const {
  return LookupRange(value, value, keys);
}

Status SecondaryIndex::LookupRange(int32_t lo, int32_t hi,
                                   std::vector<uint32_t>* keys) const {
  keys->clear();
  if (lo > hi) return Status::OK();
  BPlusTree::Iterator it = tree_.NewIterator();
  OBJREP_RETURN_NOT_OK(it.Seek(CompositeKey(lo, 0)));
  const uint64_t end = CompositeKey(hi, 0xffffffffu);
  while (it.valid() && it.key() <= end) {
    keys->push_back(static_cast<uint32_t>(it.key() & 0xffffffffu));
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

Status SecondaryIndex::OnUpdate(int32_t old_value, int32_t new_value,
                                uint32_t primary_key) {
  if (old_value == new_value) return Status::OK();
  OBJREP_RETURN_NOT_OK(tree_.Delete(CompositeKey(old_value, primary_key)));
  return tree_.Insert(CompositeKey(new_value, primary_key), "");
}

}  // namespace objrep
