// DFSCLUST (paper §3.3): depth-first processing over ClusterRel.
//
// A retrieve's OID range maps to a contiguous ClusterRel scan (cluster# ==
// parent key), which delivers each qualifying parent *and* the subobjects
// physically clustered with it — this interleaving is the ParCost
// inflation of Figure 5(a). Subobjects whose unit is clustered elsewhere
// (non-owning parents; fragmented units when OverlapFactor > 1) are
// fetched by random access through the ISAM index on ClusterRel.OID.
#include <unordered_map>

#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"
#include "objstore/unit_blob.h"
#include "storage/fault_injector.h"

namespace objrep {
namespace internal {

namespace {

/// Projects the retrieve attr out of a ClusterRel record.
Status ClusterRet(const Schema& schema, std::string_view raw, int attr_index,
                  int32_t* out) {
  Value v;
  OBJREP_RETURN_NOT_OK(DecodeField(
      schema, raw, kClusterRet1 + static_cast<size_t>(attr_index), &v));
  *out = v.as_int32();
  return Status::OK();
}

}  // namespace

Status DfsClustStrategy::ExecuteRetrieve(const Query& q,
                                         RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  const Schema& schema = db_->cluster_rel->schema();
  // Everything is ClusterRel traffic except the remote probes, which
  // re-tag kIndexProbe below.
  ScopedIoTag io_tag(IoTag::kClusterScan);

  struct Group {
    std::vector<Oid> unit;
    std::unordered_map<uint64_t, int32_t> local;  // packed OID -> attr value
    bool active = false;
  };
  Group group;

  auto finish_group = [&]() -> Status {
    if (!group.active) return Status::OK();
    for (const Oid& oid : group.unit) {
      auto it = group.local.find(oid.Packed());
      if (it != group.local.end()) {
        out->values.push_back(it->second);
        out->oids.push_back(oid);
        continue;
      }
      // Clustered elsewhere: ISAM probe, then random ClusterRel access.
      IoBracket child_bracket(&cost.child_io);
      ScopedIoTag probe_tag(IoTag::kIndexProbe);
      uint64_t cluster_key;
      Status s = db_->cluster_oid_index.Lookup(oid.Packed(), &cluster_key);
      if (!s.ok()) {
        return Status::Corruption("subobject missing from cluster index");
      }
      std::string raw;
      OBJREP_RETURN_NOT_OK(db_->cluster_rel->tree().Get(cluster_key, &raw));
      int32_t v;
      OBJREP_RETURN_NOT_OK(ClusterRet(schema, raw, q.attr_index, &v));
      out->values.push_back(v);
      out->oids.push_back(oid);
    }
    group = Group{};
    return Status::OK();
  };

  BPlusTree::Iterator it = db_->cluster_rel->tree().NewIterator();
  const uint64_t end_key =
      ClusterKey(static_cast<uint64_t>(q.lo_parent) + q.num_top, 0);
  // The retrieve maps to one contiguous ClusterRel extent — the textbook
  // read-ahead target. Staged pages cannot be evicted, so the window
  // survives the remote (ISAM + random ClusterRel) probes done between
  // scan leaves (DESIGN.md §9).
  OBJREP_RETURN_NOT_OK(
      it.SeekRange(ClusterKey(q.lo_parent, 0), end_key - 1));
  while (it.valid() && it.key() < end_key) {
    uint64_t key = it.key();
    if (ClusterSeqOf(key) == 0) {
      // Parent record: close the previous group, open a new one.
      OBJREP_RETURN_NOT_OK(finish_group());
      Value children;
      OBJREP_RETURN_NOT_OK(
          DecodeField(schema, it.value(), kClusterChildren, &children));
      group.unit = DecodeOidList(children.as_string());
      group.active = true;
    } else {
      // Locally clustered subobject of the current group.
      Value oid_val;
      OBJREP_RETURN_NOT_OK(
          DecodeField(schema, it.value(), kClusterOid, &oid_val));
      int32_t v;
      OBJREP_RETURN_NOT_OK(ClusterRet(schema, it.value(), q.attr_index, &v));
      group.local.emplace(static_cast<uint64_t>(oid_val.as_int64()), v);
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  OBJREP_RETURN_NOT_OK(finish_group());
  uint64_t total = (CurrentThreadIo() - start).total();
  cost.par_io = total - cost.child_io;
  return Status::OK();
}

Status DfsClustCacheStrategy::ExecuteRetrieve(const Query& q,
                                              RetrieveResult* out) {
  CostBreakdown& cost = out->cost;
  const ThreadIoSnapshot start = CurrentThreadIo();
  const Schema& schema = db_->cluster_rel->schema();
  // Cache traffic self-tags inside CacheManager; remote probes re-tag
  // kIndexProbe below; the rest is the ClusterRel extent scan.
  ScopedIoTag io_tag(IoTag::kClusterScan);

  struct Group {
    std::vector<Oid> unit;
    std::unordered_map<uint64_t, std::string> local;  // packed OID -> raw row
    bool active = false;
  };
  Group group;

  auto project = [&](std::string_view raw) -> Status {
    int32_t v;
    OBJREP_RETURN_NOT_OK(ClusterRet(schema, raw, q.attr_index, &v));
    out->values.push_back(v);
    return Status::OK();
  };

  auto finish_group = [&]() -> Status {
    if (!group.active) return Status::OK();
    // ClusterRel-format blobs live in their own key space: DFSCACHE/SMART
    // cache the same units as child-relation records under the unsalted
    // key, and each side's decoder misreads the other's encoding.
    uint64_t hashkey = CacheManager::HashKeyOf(
        group.unit, CacheManager::BlobFormat::kClusterRecords);
    {
      // Atomic probe+fetch (see dfs_cache.cc): concurrent eviction must
      // read as a miss, not a NotFound error. On a hit the scan already
      // read the local rows for nothing — the structural redundancy of
      // combining the two approaches.
      IoBracket cache_bracket(&cost.cache_io);
      bool found = false;
      std::string blob;
      OBJREP_RETURN_NOT_OK(db_->cache->TryFetchUnit(hashkey, &blob,
                                                    &found));
      if (found) {
        std::vector<std::string_view> records;
        OBJREP_RETURN_NOT_OK(DecodeUnitBlob(blob, &records));
        for (std::string_view raw : records) {
          OBJREP_RETURN_NOT_OK(project(raw));
        }
        out->oids.insert(out->oids.end(), group.unit.begin(),
                         group.unit.end());
        group = Group{};
        return Status::OK();
      }
    }
    // Miss: assemble the unit from local rows + remote fetches, project,
    // then maintain the cache.
    std::vector<std::string> raws;
    raws.reserve(group.unit.size());
    for (const Oid& oid : group.unit) {
      auto it = group.local.find(oid.Packed());
      if (it != group.local.end()) {
        raws.push_back(it->second);
        continue;
      }
      IoBracket child_bracket(&cost.child_io);
      ScopedIoTag probe_tag(IoTag::kIndexProbe);
      uint64_t cluster_key;
      Status s = db_->cluster_oid_index.Lookup(oid.Packed(), &cluster_key);
      if (!s.ok()) {
        return Status::Corruption("subobject missing from cluster index");
      }
      std::string raw;
      OBJREP_RETURN_NOT_OK(db_->cluster_rel->tree().Get(cluster_key, &raw));
      raws.push_back(std::move(raw));
    }
    for (const std::string& raw : raws) {
      OBJREP_RETURN_NOT_OK(project(raw));
    }
    out->oids.insert(out->oids.end(), group.unit.begin(), group.unit.end());
    IoBracket cache_bracket(&cost.cache_io);
    OBJREP_RETURN_NOT_OK(
        db_->cache->InsertUnit(hashkey, group.unit, EncodeUnitBlob(raws)));
    group = Group{};
    return Status::OK();
  };

  BPlusTree::Iterator it = db_->cluster_rel->tree().NewIterator();
  const uint64_t end_key =
      ClusterKey(static_cast<uint64_t>(q.lo_parent) + q.num_top, 0);
  OBJREP_RETURN_NOT_OK(
      it.SeekRange(ClusterKey(q.lo_parent, 0), end_key - 1));
  while (it.valid() && it.key() < end_key) {
    if (ClusterSeqOf(it.key()) == 0) {
      OBJREP_RETURN_NOT_OK(finish_group());
      Value children;
      OBJREP_RETURN_NOT_OK(
          DecodeField(schema, it.value(), kClusterChildren, &children));
      group.unit = DecodeOidList(children.as_string());
      group.active = true;
    } else {
      Value oid_val;
      OBJREP_RETURN_NOT_OK(
          DecodeField(schema, it.value(), kClusterOid, &oid_val));
      group.local.emplace(static_cast<uint64_t>(oid_val.as_int64()),
                          std::string(it.value()));
    }
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  OBJREP_RETURN_NOT_OK(finish_group());
  uint64_t total = (CurrentThreadIo() - start).total();
  cost.par_io = total - cost.child_io - cost.cache_io;
  return Status::OK();
}

Status DfsClustCacheStrategy::ExecuteUpdate(const Query& q) {
  // Clustered update translation plus I-lock invalidation: both
  // maintenance bills, another §3.4 redundancy.
  ScopedIoTag tag(IoTag::kUpdate);  // invalidation re-tags kCacheMaint
  const Schema& schema = db_->cluster_rel->schema();
  for (const Oid& oid : q.update_targets) {
    uint64_t cluster_key;
    Status s = db_->cluster_oid_index.Lookup(oid.Packed(), &cluster_key);
    if (!s.ok()) {
      return Status::Corruption("update target missing from cluster index");
    }
    std::vector<Value> values;
    OBJREP_RETURN_NOT_OK(db_->cluster_rel->Get(cluster_key, &values));
    values[kClusterRet1] = Value(q.new_ret1);
    std::string encoded;
    OBJREP_RETURN_NOT_OK(EncodeRecord(schema, values, &encoded));
    OBJREP_RETURN_NOT_OK(
        db_->cluster_rel->tree().UpdateInPlace(cluster_key, encoded));
    // Crash point between the clustered write and its cache invalidation:
    // without the enclosing transaction the cache could outlive the page
    // image that made it stale.
    OBJREP_RETURN_NOT_OK(
        db_->disk->fault_injector()->MaybeCrash("clust.update.mid"));
    OBJREP_RETURN_NOT_OK(db_->cache->InvalidateSubobject(oid));
  }
  return Status::OK();
}

Status DfsClustStrategy::ExecuteUpdate(const Query& q) {
  // Updates are "translated into equivalent queries on ClusterRel"
  // (paper §4 [2]): locate the subobject through the ISAM index and modify
  // it in place wherever it is clustered.
  ScopedIoTag tag(IoTag::kUpdate);
  const Schema& schema = db_->cluster_rel->schema();
  for (const Oid& oid : q.update_targets) {
    uint64_t cluster_key;
    Status s = db_->cluster_oid_index.Lookup(oid.Packed(), &cluster_key);
    if (!s.ok()) {
      return Status::Corruption("update target missing from cluster index");
    }
    std::vector<Value> values;
    OBJREP_RETURN_NOT_OK(db_->cluster_rel->Get(cluster_key, &values));
    values[kClusterRet1] = Value(q.new_ret1);
    std::string encoded;
    OBJREP_RETURN_NOT_OK(EncodeRecord(schema, values, &encoded));
    OBJREP_RETURN_NOT_OK(
        db_->cluster_rel->tree().UpdateInPlace(cluster_key, encoded));
    OBJREP_RETURN_NOT_OK(
        db_->disk->fault_injector()->MaybeCrash("clust.update.mid"));
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
