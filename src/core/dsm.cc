#include "core/dsm.h"

#include <cstring>
#include <map>

#include "objstore/rows.h"
#include "relational/external_sort.h"
#include "relational/merge_join.h"
#include "relational/temp_file.h"

namespace objrep {

namespace {

std::string EncodeI32(int32_t v) {
  std::string s(4, '\0');
  std::memcpy(s.data(), &v, 4);
  return s;
}

int32_t DecodeI32(std::string_view s) {
  OBJREP_CHECK(s.size() == 4);
  int32_t v;
  std::memcpy(&v, s.data(), 4);
  return v;
}

}  // namespace

Status DsmDatabase::Build(const ComplexDatabase& src,
                          std::unique_ptr<DsmDatabase>* out) {
  if (src.child_rels.size() != 1) {
    return Status::NotSupported("DSM build models a single child relation");
  }
  auto db = std::unique_ptr<DsmDatabase>(new DsmDatabase());
  db->disk_ = std::make_unique<DiskManager>();
  db->pool_ =
      std::make_unique<BufferPool>(db->disk_.get(), src.spec.buffer_pages);
  db->size_unit_ = src.spec.size_unit;

  // ParentRel is unchanged (the OID representation's referencing side).
  db->parent_rel_ = Table("ParentRel", 1,
                          MakeParentSchema(src.parent_dummy_width));
  {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(src.spec.num_parents);
    for (uint32_t p = 0; p < src.spec.num_parents; ++p) {
      std::vector<Value> vals;
      OBJREP_RETURN_NOT_OK(src.parent_rel->Get(p, &vals));
      rows.emplace_back(p, std::move(vals));
    }
    OBJREP_RETURN_NOT_OK(db->parent_rel_.BulkLoad(db->pool_.get(), rows));
  }

  // Decompose ChildRel into binary relations, one per attribute.
  const auto& child_rows = src.child_rows[0];
  for (int attr = 0; attr < 3; ++attr) {
    std::vector<BPlusTree::Entry> entries;
    entries.reserve(child_rows.size());
    for (const ChildRow& row : child_rows) {
      int32_t v = attr == 0 ? row.ret1 : attr == 1 ? row.ret2 : row.ret3;
      entries.push_back(BPlusTree::Entry{row.oid.key, EncodeI32(v)});
    }
    OBJREP_RETURN_NOT_OK(
        BPlusTree::BulkLoad(db->pool_.get(), entries, &db->columns_[attr]));
  }
  {
    std::vector<BPlusTree::Entry> entries;
    entries.reserve(child_rows.size());
    std::string pad(src.child_dummy_width, 'x');
    for (const ChildRow& row : child_rows) {
      entries.push_back(BPlusTree::Entry{row.oid.key, pad});
    }
    OBJREP_RETURN_NOT_OK(
        BPlusTree::BulkLoad(db->pool_.get(), entries, &db->dummy_column_));
  }

  OBJREP_RETURN_NOT_OK(db->pool_->FlushAll());
  db->disk_->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

Status DsmDatabase::RetrieveDfs(const Query& q, RetrieveResult* out) {
  const ThreadIoSnapshot start = CurrentThreadIo();
  const BPlusTree& column = columns_[q.attr_index];
  BPlusTree::Iterator it = parent_rel_.tree().NewIterator();
  OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  while (it.valid() && it.key() < end) {
    Value children;
    OBJREP_RETURN_NOT_OK(DecodeField(parent_rel_.schema(), it.value(),
                                     kParentChildren, &children));
    IoBracket child_bracket(&out->cost.child_io);
    for (const Oid& oid : DecodeOidList(children.as_string())) {
      std::string raw;
      OBJREP_RETURN_NOT_OK(column.Get(oid.key, &raw));
      out->values.push_back(DecodeI32(raw));
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  out->cost.par_io =
      (CurrentThreadIo() - start).total() - out->cost.child_io;
  return Status::OK();
}

Status DsmDatabase::RetrieveBfs(const Query& q, RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  TempFile temp;
  OBJREP_RETURN_NOT_OK(TempFile::Create(pool_.get(), &temp));
  {
    BPlusTree::Iterator it = parent_rel_.tree().NewIterator();
    OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
    const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
    while (it.valid() && it.key() < end) {
      Value children;
      OBJREP_RETURN_NOT_OK(DecodeField(parent_rel_.schema(), it.value(),
                                       kParentChildren, &children));
      IoBracket temp_bracket(&cost.temp_io);
      for (const Oid& oid : DecodeOidList(children.as_string())) {
        OBJREP_RETURN_NOT_OK(temp.Append(oid.key));
      }
      OBJREP_RETURN_NOT_OK(it.Next());
    }
  }
  cost.par_io = (CurrentThreadIo() - start).total() - cost.temp_io;
  temp.Seal();
  TempFile sorted;
  {
    IoBracket temp_bracket(&cost.temp_io);
    OBJREP_RETURN_NOT_OK(
        ExternalSort(pool_.get(), temp, SortOptions{}, &sorted));
  }
  IoBracket child_bracket(&cost.child_io);
  return MergeJoinSortedKeys(
      sorted.Read(), columns_[q.attr_index],
      [&](uint64_t /*key*/, std::string_view raw) -> Status {
        out->values.push_back(DecodeI32(raw));
        return Status::OK();
      });
}

Status DsmDatabase::RetrieveReconstruct(const Query& q, RetrieveResult* out) {
  const ThreadIoSnapshot start = CurrentThreadIo();
  BPlusTree::Iterator it = parent_rel_.tree().NewIterator();
  OBJREP_RETURN_NOT_OK(it.Seek(q.lo_parent));
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  while (it.valid() && it.key() < end) {
    Value children;
    OBJREP_RETURN_NOT_OK(DecodeField(parent_rel_.schema(), it.value(),
                                     kParentChildren, &children));
    IoBracket child_bracket(&out->cost.child_io);
    for (const Oid& oid : DecodeOidList(children.as_string())) {
      // person.all: every column participates, including the pad bytes.
      for (auto& column : columns_) {
        std::string raw;
        OBJREP_RETURN_NOT_OK(column.Get(oid.key, &raw));
        out->values.push_back(DecodeI32(raw));
      }
      std::string pad;
      OBJREP_RETURN_NOT_OK(dummy_column_.Get(oid.key, &pad));
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  out->cost.par_io =
      (CurrentThreadIo() - start).total() - out->cost.child_io;
  return Status::OK();
}

Status DsmDatabase::ExecuteUpdate(const Query& q) {
  for (const Oid& oid : q.update_targets) {
    OBJREP_RETURN_NOT_OK(
        columns_[0].UpdateInPlace(oid.key, EncodeI32(q.new_ret1)));
  }
  return Status::OK();
}

}  // namespace objrep
