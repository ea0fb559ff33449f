// DFSCACHE (paper §3.2): "Check if the value of the subobjects is cached.
// If so, fetch the attribute from the cache. Otherwise, fetch the
// subobjects from the person relation (materialization), cache their
// values, and return the attribute."
//
// The cache is maintained on the retrieval path (fresh units inserted) and
// invalidated on the update path through I-locks.
#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/unit_blob.h"

namespace objrep {
namespace internal {

Status CachedDepthFirstRetrieve(ComplexDatabase* db, const Query& q,
                                RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  OBJREP_RETURN_NOT_OK(ScanParents(
      db, q,
      [&](uint32_t /*parent_key*/, const std::vector<Oid>& unit) -> Status {
        uint64_t hashkey = CacheManager::HashKeyOf(unit);
        {
          // Atomic probe+fetch: a concurrent retriever's insert may evict
          // this unit between a residency check and the read, so the two
          // are one directory-lock hold and a miss is an answer, not an
          // error.
          IoBracket cache_bracket(&cost.cache_io);
          bool found = false;
          std::string blob;
          OBJREP_RETURN_NOT_OK(db->cache->TryFetchUnit(hashkey, &blob,
                                                       &found));
          if (found) {
            OBJREP_RETURN_NOT_OK(
                ProjectUnitBlob(db, blob, q.attr_index, &out->values));
            out->oids.insert(out->oids.end(), unit.begin(), unit.end());
            return Status::OK();
          }
        }
        // Miss: materialize the unit, then maintain the cache.
        std::vector<std::string> raws;
        {
          IoBracket child_bracket(&cost.child_io);
          OBJREP_RETURN_NOT_OK(MaterializeUnit(db, unit, q.attr_index, &raws,
                                               &out->values));
          out->oids.insert(out->oids.end(), unit.begin(), unit.end());
        }
        IoBracket cache_bracket(&cost.cache_io);
        return db->cache->InsertUnit(hashkey, unit, EncodeUnitBlob(raws));
      }));
  uint64_t total = (CurrentThreadIo() - start).total();
  cost.par_io = total - cost.child_io - cost.cache_io;
  return Status::OK();
}

Status DfsCacheStrategy::ExecuteRetrieve(const Query& q,
                                         RetrieveResult* out) {
  return CachedDepthFirstRetrieve(db_, q, out);
}

Status DfsCacheStrategy::ExecuteUpdate(const Query& q) {
  ScopedIoTag tag(IoTag::kUpdate);  // invalidation re-tags kCacheMaint
  for (const Oid& oid : q.update_targets) {
    OBJREP_RETURN_NOT_OK(UpdateChildInPlace(oid, q.new_ret1));
    // The update holds the subobject's page; its I-locks name the cached
    // units to invalidate (hash-relation deletes, charged as I/O).
    OBJREP_RETURN_NOT_OK(db_->cache->InvalidateSubobject(oid));
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
