// BFS and BFSNODUP (paper §3.1 [2], [3]).
//
// "Collect the OID's from qualifying tuples of group into a temporary
// relation temp whose single attribute is OID", sort it, and execute
//     retrieve (person.attr) where person.OID = temp.OID
// as a merge join against ChildRel's B-tree. BFSNODUP additionally removes
// duplicate OIDs during the sort.
//
// With several child relations (paper §6.2) the scan routes each OID to a
// per-relation temporary and runs one merge join per relation encountered.
#include <map>

#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"
#include "relational/merge_join.h"

namespace objrep {
namespace internal {

Status BfsStrategy::ExecuteRetrieve(const Query& q, RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();

  // Phase 1: scan qualifying parents, route OIDs to per-relation temps.
  // (std::map so relations are processed in a deterministic order.)
  std::map<RelationId, TempFile> temps;
  OBJREP_RETURN_NOT_OK(ScanParents(
      db_, q,
      [&](uint32_t /*parent_key*/, const std::vector<Oid>& unit) -> Status {
        IoBracket temp_bracket(&cost.temp_io);
        for (const Oid& oid : unit) {
          auto it = temps.find(oid.rel);
          if (it == temps.end()) {
            TempFile t;
            OBJREP_RETURN_NOT_OK(TempFile::Create(db_->pool.get(), &t));
            it = temps.emplace(oid.rel, std::move(t)).first;
          }
          // ChildRel B-trees are keyed on the OID's key part (the relation
          // part is fixed per temp), so append the key: the sorted temp
          // then merge-joins directly.
          OBJREP_RETURN_NOT_OK(it->second.Append(oid.key));
        }
        return Status::OK();
      }));
  uint64_t scan_total = (CurrentThreadIo() - start).total();
  cost.par_io = scan_total - cost.temp_io;

  // Phases 2+3 per relation: sort the temp, then merge join.
  for (auto& [rel_id, temp] : temps) {
    temp.Seal();
    TempFile sorted;
    {
      IoBracket temp_bracket(&cost.temp_io);
      SortOptions opts;
      opts.dedup = dedup_;
      opts.reclaim_runs = db_->spec.reclaim_temp_pages;
      OBJREP_RETURN_NOT_OK(
          ExternalSort(db_->pool.get(), temp, opts, &sorted));
      // The unsorted input is dead once the sort has consumed it.
      if (db_->spec.reclaim_temp_pages) {
        OBJREP_RETURN_NOT_OK(temp.FreePages());
      }
    }
    const Table* table = db_->ChildRelById(rel_id);
    if (table == nullptr) {
      return Status::Corruption("temp references unknown relation");
    }
    IoBracket child_bracket(&cost.child_io);
    // Near-sequential child-leaf reads of the merge join — the BFS payoff
    // the paper trades the sort for (§5). Temp-stream reads of `sorted`
    // re-tag kTempSort inside TempFile::Reader.
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
