// BFS with a hash join (extension beyond the paper's INGRES, which had
// iterative substitution and merge join only).
//
// Phase 1 is plain BFS (collect the qualifying objects' subobject OIDs
// into per-relation temporaries). Phase 2 loads each temporary into an
// in-memory multiset keyed by OID — charging the temp re-read, but no
// sort — and phase 3 scans the relation's leaf chain once, emitting one
// value per temp occurrence of each matching key. Wins over merge join
// when the temporary covers most leaves anyway (high NumTop): the saved
// sort passes outweigh the extra cold leaves. Loses badly at low NumTop.
#include <map>
#include <unordered_map>

#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"

namespace objrep {
namespace internal {

Status BfsHashStrategy::ExecuteRetrieve(const Query& q, RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();

  // Phase 1: scan qualifying parents, route OIDs to per-relation temps.
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
          OBJREP_RETURN_NOT_OK(it->second.Append(oid.key));
        }
        return Status::OK();
      }));
  uint64_t scan_total = (CurrentThreadIo() - start).total();
  cost.par_io = scan_total - cost.temp_io;

  for (auto& [rel_id, temp] : temps) {
    temp.Seal();
    // Phase 2: build the in-memory hash table (key -> multiplicity).
    std::unordered_map<uint64_t, uint32_t> build;
    {
      IoBracket temp_bracket(&cost.temp_io);
      build.reserve(static_cast<size_t>(temp.num_entries()));
      for (TempFile::Reader r = temp.Read(); r.valid();) {
        ++build[r.value()];
        OBJREP_RETURN_NOT_OK(r.Next());
      }
      // No sort phase here: the temp is dead once the hash table holds it.
      if (db_->spec.reclaim_temp_pages) {
        OBJREP_RETURN_NOT_OK(temp.FreePages());
      }
    }
    const Table* table = db_->ChildRelById(rel_id);
    if (table == nullptr) {
      return Status::Corruption("temp references unknown relation");
    }
    // Phase 3: one sequential probe scan over the whole relation.
    IoBracket child_bracket(&cost.child_io);
    ScopedIoTag heap_tag(IoTag::kHeapFetch);
    BPlusTree::Iterator it = table->tree().NewIterator();
    OBJREP_RETURN_NOT_OK(it.SeekToFirst());
    while (it.valid()) {
      auto hit = build.find(it.key());
      if (hit != build.end()) {
        int32_t v;
        OBJREP_RETURN_NOT_OK(
            DecodeChildRet(table->schema(), it.value(), q.attr_index, &v));
        for (uint32_t i = 0; i < hit->second; ++i) {
          out->values.push_back(v);
          out->oids.push_back(Oid{rel_id, static_cast<uint32_t>(it.key())});
        }
      }
      OBJREP_RETURN_NOT_OK(it.Next());
    }
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
