#include "relational/table.h"

namespace objrep {

Status Table::BulkLoad(
    BufferPool* pool,
    const std::vector<std::pair<uint64_t, std::vector<Value>>>& rows) {
  std::vector<BPlusTree::Entry> entries;
  entries.reserve(rows.size());
  for (const auto& [key, values] : rows) {
    std::string encoded;
    OBJREP_RETURN_NOT_OK(EncodeRecord(schema_, values, &encoded));
    entries.push_back(BPlusTree::Entry{key, std::move(encoded)});
  }
  return BPlusTree::BulkLoad(pool, entries, &tree_);
}

Status Table::Insert(uint64_t key, const std::vector<Value>& values) {
  std::string encoded;
  OBJREP_RETURN_NOT_OK(EncodeRecord(schema_, values, &encoded));
  return tree_.Insert(key, encoded);
}

Status Table::Get(uint64_t key, std::vector<Value>* values) const {
  std::string raw;
  OBJREP_RETURN_NOT_OK(tree_.Get(key, &raw));
  return DecodeRecord(schema_, raw, values);
}

Status Table::GetField(uint64_t key, size_t field_index, Value* out) const {
  std::string raw;
  OBJREP_RETURN_NOT_OK(tree_.Get(key, &raw));
  return DecodeField(schema_, raw, field_index, out);
}

Status Table::UpdateInPlace(uint64_t key, const std::vector<Value>& values) {
  std::string encoded;
  OBJREP_RETURN_NOT_OK(EncodeRecord(schema_, values, &encoded));
  return tree_.UpdateInPlace(key, encoded);
}

Table* Catalog::Register(std::string name, Schema schema) {
  auto table = std::make_unique<Table>(
      std::move(name), static_cast<RelationId>(tables_.size() + 1),
      std::move(schema));
  tables_.push_back(std::move(table));
  return tables_.back().get();
}

Table* Catalog::Find(const std::string& name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

Table* Catalog::FindById(RelationId id) {
  for (auto& t : tables_) {
    if (t->rel_id() == id) return t.get();
  }
  return nullptr;
}

}  // namespace objrep
