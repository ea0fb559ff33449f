// SMART (paper §5.3): the hybrid that "makes the best use of caching".
//
// * NumTop <= N  — behave exactly like DFSCACHE (maintain the cache).
// * NumTop  > N  — breadth-first pass: scan the qualifying objects, serve
//   cached units from the Cache relation, collect the OIDs of uncached
//   units into temporaries, and merge-join those. "The status of the cache
//   remains invariant during the execution of the breadth-first strategy"
//   — no insertions on this path, so the merge join stays competitive.
#include <map>

#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"
#include "objstore/unit_blob.h"
#include "relational/merge_join.h"

namespace objrep {
namespace internal {

Status SmartStrategy::ExecuteRetrieve(const Query& q, RetrieveResult* out) {
  if (q.num_top <= threshold_) {
    return CachedDepthFirstRetrieve(db_, q, out);
  }
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();

  std::map<RelationId, TempFile> temps;
  OBJREP_RETURN_NOT_OK(ScanParents(
      db_, q,
      [&](uint32_t /*parent_key*/, const std::vector<Oid>& unit) -> Status {
        uint64_t hashkey = CacheManager::HashKeyOf(unit);
        {
          // Atomic probe+fetch (see dfs_cache.cc): concurrent eviction
          // must read as a miss, not a NotFound error.
          IoBracket cache_bracket(&cost.cache_io);
          bool found = false;
          std::string blob;
          OBJREP_RETURN_NOT_OK(db_->cache->TryFetchUnit(hashkey, &blob,
                                                        &found));
          if (found) {
            OBJREP_RETURN_NOT_OK(
                ProjectUnitBlob(db_, blob, q.attr_index, &out->values));
            out->oids.insert(out->oids.end(), unit.begin(), unit.end());
            return Status::OK();
          }
        }
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
  cost.par_io = scan_total - cost.temp_io - cost.cache_io;

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

Status SmartStrategy::ExecuteUpdate(const Query& q) {
  ScopedIoTag tag(IoTag::kUpdate);  // invalidation re-tags kCacheMaint
  for (const Oid& oid : q.update_targets) {
    OBJREP_RETURN_NOT_OK(UpdateChildInPlace(oid, q.new_ret1));
    OBJREP_RETURN_NOT_OK(db_->cache->InvalidateSubobject(oid));
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
