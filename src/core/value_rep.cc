#include "core/value_rep.h"

#include <algorithm>

#include "objstore/rows.h"
#include "objstore/unit_blob.h"

namespace objrep {

namespace {

Schema MakeValueRelSchema(uint32_t parent_dummy_width) {
  return Schema({
      {"OID", FieldType::kInt64, 0},
      {"ret1", FieldType::kInt32, 0},
      {"ret2", FieldType::kInt32, 0},
      {"ret3", FieldType::kInt32, 0},
      {"dummy", FieldType::kChar, parent_dummy_width},
      {"values", FieldType::kBytes, 0},  // inlined subobject records
  });
}

constexpr size_t kValueBlobField = 5;

std::string EncodeParentList(const std::vector<uint32_t>& parents) {
  std::string out;
  out.reserve(parents.size() * 4);
  for (uint32_t p : parents) {
    out.append(reinterpret_cast<const char*>(&p), 4);
  }
  return out;
}

std::vector<uint32_t> DecodeParentList(std::string_view raw) {
  std::vector<uint32_t> out;
  out.reserve(raw.size() / 4);
  for (size_t i = 0; i + 4 <= raw.size(); i += 4) {
    uint32_t p;
    std::memcpy(&p, raw.data() + i, 4);
    out.push_back(p);
  }
  return out;
}

}  // namespace

Status ValueRepDatabase::Build(const ComplexDatabase& src,
                               std::unique_ptr<ValueRepDatabase>* out) {
  auto db = std::unique_ptr<ValueRepDatabase>(new ValueRepDatabase());
  db->disk_ = std::make_unique<DiskManager>();
  db->pool_ =
      std::make_unique<BufferPool>(db->disk_.get(), src.spec.buffer_pages);
  db->child_schema_ = src.child_rels[0]->schema();
  db->size_unit_ = src.spec.size_unit;
  db->value_rel_ = Table("ValueRel", 1,
                         MakeValueRelSchema(src.parent_dummy_width));

  // One encoded record per (relation, key) child, reused across replicas.
  auto encode_child = [&](const Oid& oid, std::string* raw) -> Status {
    for (size_t r = 0; r < src.child_rels.size(); ++r) {
      if (src.child_rels[r]->rel_id() != oid.rel) continue;
      return EncodeRecord(
          db->child_schema_,
          ChildRowValues(src.child_rows[r][oid.key], src.child_dummy_width),
          raw);
    }
    return Status::Corruption("child OID references unknown relation");
  };

  std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
  rows.reserve(src.spec.num_parents);
  std::unordered_map<uint64_t, std::vector<uint32_t>> replicas;
  for (uint32_t p = 0; p < src.spec.num_parents; ++p) {
    std::vector<Value> parent_vals;
    OBJREP_RETURN_NOT_OK(src.parent_rel->Get(p, &parent_vals));
    const std::vector<Oid>& unit = src.units[src.unit_of_parent[p]];
    std::vector<std::string> records;
    records.reserve(unit.size());
    for (const Oid& oid : unit) {
      std::string raw;
      OBJREP_RETURN_NOT_OK(encode_child(oid, &raw));
      records.push_back(std::move(raw));
      replicas[oid.Packed()].push_back(p);
      ++db->replica_count_;
    }
    rows.emplace_back(
        p, std::vector<Value>{parent_vals[kParentOid],
                              parent_vals[kParentRet1],
                              parent_vals[kParentRet2],
                              parent_vals[kParentRet3],
                              parent_vals[kParentDummy],
                              Value(EncodeUnitBlob(records))});
  }
  OBJREP_RETURN_NOT_OK(db->value_rel_.BulkLoad(db->pool_.get(), rows));

  // Replica index: packed child OID -> list of referencing parents.
  std::vector<BPlusTree::Entry> index_entries;
  index_entries.reserve(replicas.size());
  for (const auto& [packed, parents] : replicas) {
    index_entries.push_back(
        BPlusTree::Entry{packed, EncodeParentList(parents)});
  }
  std::sort(index_entries.begin(), index_entries.end(),
            [](const BPlusTree::Entry& a, const BPlusTree::Entry& b) {
              return a.key < b.key;
            });
  OBJREP_RETURN_NOT_OK(BPlusTree::BulkLoad(db->pool_.get(), index_entries,
                                           &db->replica_index_));

  OBJREP_RETURN_NOT_OK(db->pool_->FlushAll());
  db->disk_->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

Status ValueRepDatabase::ExecuteRetrieve(const Query& q,
                                         RetrieveResult* out) {
  const ThreadIoSnapshot start = CurrentThreadIo();
  BPlusTree::Iterator it = value_rel_.tree().NewIterator();
  OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  while (it.valid() && it.key() < end) {
    Value blob;
    OBJREP_RETURN_NOT_OK(DecodeField(value_rel_.schema(), it.value(),
                                     kValueBlobField, &blob));
    std::vector<std::string_view> records;
    OBJREP_RETURN_NOT_OK(DecodeUnitBlob(blob.as_string(), &records));
    for (std::string_view raw : records) {
      int32_t v;
      OBJREP_RETURN_NOT_OK(DecodeChildRet(child_schema_, raw, q.attr_index,
                                          &v));
      out->values.push_back(v);
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  // Value-based retrieval is one contiguous scan: all ParCost.
  out->cost.par_io = (CurrentThreadIo() - start).total();
  return Status::OK();
}

Status ValueRepDatabase::ExecuteUpdate(const Query& q) {
  for (const Oid& target : q.update_targets) {
    std::string raw_list;
    Status s = replica_index_.Get(target.Packed(), &raw_list);
    if (s.IsNotFound()) continue;  // unreferenced subobject: no replicas
    OBJREP_RETURN_NOT_OK(s);
    for (uint32_t p : DecodeParentList(raw_list)) {
      std::vector<Value> row;
      OBJREP_RETURN_NOT_OK(value_rel_.Get(p, &row));
      std::vector<std::string_view> records;
      OBJREP_RETURN_NOT_OK(
          DecodeUnitBlob(row[kValueBlobField].as_string(), &records));
      std::vector<std::string> rebuilt;
      rebuilt.reserve(records.size());
      bool changed = false;
      for (std::string_view rec : records) {
        Value oid_val;
        OBJREP_RETURN_NOT_OK(
            DecodeField(child_schema_, rec, kChildOid, &oid_val));
        if (static_cast<uint64_t>(oid_val.as_int64()) == target.Packed()) {
          std::vector<Value> fields;
          OBJREP_RETURN_NOT_OK(DecodeRecord(child_schema_, rec, &fields));
          fields[kChildRet1] = Value(q.new_ret1);
          std::string re;
          OBJREP_RETURN_NOT_OK(EncodeRecord(child_schema_, fields, &re));
          rebuilt.push_back(std::move(re));
          changed = true;
        } else {
          rebuilt.emplace_back(rec);
        }
      }
      if (!changed) {
        return Status::Corruption("replica index points at a non-replica");
      }
      row[kValueBlobField] = Value(EncodeUnitBlob(rebuilt));
      OBJREP_RETURN_NOT_OK(value_rel_.UpdateInPlace(p, row));
    }
  }
  return Status::OK();
}

}  // namespace objrep
