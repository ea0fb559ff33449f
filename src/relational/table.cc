#include "relational/table.h"

namespace objrep {

Status Table::BulkLoad(BufferPool* pool, const RowSource& next) {
  std::string encoded;
  Status encode_status;
  Status s = BPlusTree::BulkLoad(
      pool,
      [&](uint64_t* key, std::string_view* value) {
        const std::vector<Value>* values = next(key);
        if (values == nullptr) return false;
        encode_status = EncodeRecord(schema_, *values, &encoded);
        if (!encode_status.ok()) return false;
        *value = encoded;
        return true;
      },
      &tree_);
  OBJREP_RETURN_NOT_OK(encode_status);
  return s;
}

Status Table::BulkLoad(
    BufferPool* pool,
    const std::vector<std::pair<uint64_t, std::vector<Value>>>& rows) {
  size_t i = 0;
  return BulkLoad(pool, [&](uint64_t* key) -> const std::vector<Value>* {
    if (i == rows.size()) return nullptr;
    *key = rows[i].first;
    return &rows[i++].second;
  });
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
