// BFS over a join index ([VALD86], cited by the paper's §2 as the MCC
// line of "implementation techniques for complex objects").
//
// The join index is a dense binary relation mapping (object key,
// position) -> subobject OID, B-tree-clustered on object key. A retrieve's
// OID-collection phase becomes a contiguous scan of ~20-byte entries
// instead of ~200-byte ParentRel tuples, cutting ParCost roughly by the
// width ratio; the sort + merge join phases are identical to plain BFS.
#include <cstring>
#include <map>

#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"
#include "relational/merge_join.h"

namespace objrep {
namespace internal {

Status BfsJoinIndexStrategy::ExecuteRetrieve(const Query& q,
                                             RetrieveResult* out) {
  if (!db_->has_join_index) {
    return Status::InvalidArgument(
        "BFS-JI requires spec.build_join_index");
  }
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();

  // Phase 1: contiguous join-index scan over the qualifying objects.
  std::map<RelationId, TempFile> temps;
  {
    // The join-index scan is this strategy's (much thinner) parent scan;
    // temp appends re-tag kTempSort inside TempFile.
    ScopedIoTag io_tag(IoTag::kParentScan);
    BPlusTree::Iterator it = db_->join_index.NewIterator();
    OBJREP_RETURN_NOT_OK(it.Seek(static_cast<uint64_t>(q.lo_parent) << 12));
    const uint64_t end =
        (static_cast<uint64_t>(q.lo_parent) + q.num_top) << 12;
    while (it.valid() && it.key() < end) {
      std::string_view v = it.value();
      if (v.size() != 8) {
        return Status::Corruption("malformed join index entry");
      }
      uint64_t packed;
      std::memcpy(&packed, v.data(), 8);
      Oid oid = Oid::FromPacked(packed);
      IoBracket temp_bracket(&cost.temp_io);
      auto t = temps.find(oid.rel);
      if (t == temps.end()) {
        TempFile fresh;
        OBJREP_RETURN_NOT_OK(TempFile::Create(db_->pool.get(), &fresh));
        t = temps.emplace(oid.rel, std::move(fresh)).first;
      }
      OBJREP_RETURN_NOT_OK(t->second.Append(oid.key));
      OBJREP_RETURN_NOT_OK(it.Next());
    }
  }
  cost.par_io = (CurrentThreadIo() - start).total() - cost.temp_io;

  // Phases 2+3: identical to BFS.
  for (auto& [rel_id, temp] : temps) {
    temp.Seal();
    TempFile sorted;
    {
      IoBracket temp_bracket(&cost.temp_io);
      SortOptions opts;
      opts.reclaim_runs = db_->spec.reclaim_temp_pages;
      OBJREP_RETURN_NOT_OK(
          ExternalSort(db_->pool.get(), temp, opts, &sorted));
      if (db_->spec.reclaim_temp_pages) {
        OBJREP_RETURN_NOT_OK(temp.FreePages());
      }
    }
    const Table* table = db_->ChildRelById(rel_id);
    if (table == nullptr) {
      return Status::Corruption("temp references unknown relation");
    }
    IoBracket child_bracket(&cost.child_io);
    ScopedIoTag heap_tag(IoTag::kHeapFetch);
    OBJREP_RETURN_NOT_OK(MergeJoinSortedKeys(
        sorted.Read(), table->tree(),
        [&](uint64_t key, std::string_view raw) -> Status {
          int32_t v;
          OBJREP_RETURN_NOT_OK(
              DecodeChildRet(table->schema(), raw, q.attr_index, &v));
          out->values.push_back(v);
          out->oids.push_back(Oid{rel_id, static_cast<uint32_t>(key)});
          return Status::OK();
        }));
    if (db_->spec.reclaim_temp_pages) {
      IoBracket temp_bracket(&cost.temp_io);
      OBJREP_RETURN_NOT_OK(sorted.FreePages());
    }
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
