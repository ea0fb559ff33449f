#include "core/strategy.h"

#include <algorithm>
#include <utility>

#include "core/adaptive.h"
#include "core/strategies_impl.h"
#include "obs/io_context.h"
#include "objstore/rows.h"
#include "objstore/unit_blob.h"
#include "storage/fault_injector.h"

namespace objrep {

Status Strategy::UpdateChildInPlace(const Oid& oid, int32_t new_ret1) {
  Table* table = db_->ChildRelById(oid.rel);
  if (table == nullptr) {
    return Status::InvalidArgument("update target references unknown relation");
  }
  std::vector<Value> values;
  OBJREP_RETURN_NOT_OK(table->Get(oid.key, &values));
  values[kChildRet1] = Value(new_ret1);
  OBJREP_RETURN_NOT_OK(table->UpdateInPlace(oid.key, values));
  // Crash point between the targets of a multi-target update query: only
  // a transaction makes the query all-or-nothing.
  return db_->disk->fault_injector()->MaybeCrash("update.child");
}

Status Strategy::ExecuteUpdate(const Query& q) {
  // Index descent + heap write per target; invalidation and WAL traffic
  // inside re-tag themselves (kCacheMaint / kWal).
  ScopedIoTag tag(IoTag::kUpdate);
  for (const Oid& oid : q.update_targets) {
    OBJREP_RETURN_NOT_OK(UpdateChildInPlace(oid, q.new_ret1));
  }
  return Status::OK();
}

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kDfs: return "DFS";
    case StrategyKind::kBfs: return "BFS";
    case StrategyKind::kBfsNoDup: return "BFSNODUP";
    case StrategyKind::kDfsCache: return "DFSCACHE";
    case StrategyKind::kDfsClust: return "DFSCLUST";
    case StrategyKind::kSmart: return "SMART";
    case StrategyKind::kDfsClustCache: return "DFSCLUST+CACHE";
    case StrategyKind::kBfsJoinIndex: return "BFS-JI";
    case StrategyKind::kBfsHash: return "BFS-HASH";
    case StrategyKind::kAdaptive: return "ADAPTIVE";
  }
  return "?";
}

Status MakeStrategy(StrategyKind kind, ComplexDatabase* db,
                    const StrategyOptions& options,
                    std::unique_ptr<Strategy>* out) {
  switch (kind) {
    case StrategyKind::kDfs:
      *out = std::make_unique<internal::DfsStrategy>(db);
      return Status::OK();
    case StrategyKind::kBfs:
      *out = std::make_unique<internal::BfsStrategy>(db, /*dedup=*/false);
      return Status::OK();
    case StrategyKind::kBfsNoDup:
      *out = std::make_unique<internal::BfsStrategy>(db, /*dedup=*/true);
      return Status::OK();
    case StrategyKind::kDfsCache:
      if (db->cache == nullptr) {
        return Status::InvalidArgument("DFSCACHE requires spec.build_cache");
      }
      *out = std::make_unique<internal::DfsCacheStrategy>(db);
      return Status::OK();
    case StrategyKind::kDfsClust:
      if (db->cluster_rel == nullptr) {
        return Status::InvalidArgument("DFSCLUST requires spec.build_cluster");
      }
      *out = std::make_unique<internal::DfsClustStrategy>(db);
      return Status::OK();
    case StrategyKind::kSmart:
      if (db->cache == nullptr) {
        return Status::InvalidArgument("SMART requires spec.build_cache");
      }
      *out = std::make_unique<internal::SmartStrategy>(
          db, options.smart_threshold);
      return Status::OK();
    case StrategyKind::kDfsClustCache:
      if (db->cluster_rel == nullptr || db->cache == nullptr) {
        return Status::InvalidArgument(
            "DFSCLUST+CACHE requires spec.build_cluster and spec.build_cache");
      }
      *out = std::make_unique<internal::DfsClustCacheStrategy>(db);
      return Status::OK();
    case StrategyKind::kBfsJoinIndex:
      if (!db->has_join_index) {
        return Status::InvalidArgument(
            "BFS-JI requires spec.build_join_index");
      }
      *out = std::make_unique<internal::BfsJoinIndexStrategy>(db);
      return Status::OK();
    case StrategyKind::kBfsHash:
      *out = std::make_unique<internal::BfsHashStrategy>(db);
      return Status::OK();
    case StrategyKind::kAdaptive:
      // No structure requirements: the candidate set adapts to whatever
      // the database has built (DFS/BFS at minimum).
      *out = std::make_unique<AdaptiveStrategy>(db, options);
      return Status::OK();
  }
  return Status::InvalidArgument("unknown strategy kind");
}

DatabaseSpec WithStructuresFor(DatabaseSpec spec,
                               const std::vector<StrategyKind>& kinds) {
  for (StrategyKind k : kinds) {
    if (k == StrategyKind::kDfsCache || k == StrategyKind::kSmart ||
        k == StrategyKind::kDfsClustCache) {
      spec.build_cache = true;
    }
    if (k == StrategyKind::kDfsClust || k == StrategyKind::kDfsClustCache) {
      spec.build_cluster = true;
    }
    if (k == StrategyKind::kBfsJoinIndex) spec.build_join_index = true;
  }
  return spec;
}

namespace internal {

Status ScanParents(
    ComplexDatabase* db, const Query& q,
    const std::function<Status(uint32_t, const std::vector<Oid>&)>& fn) {
  if (q.num_top == 0) return Status::OK();
  // The whole loop runs under kParentScan: the parent-leaf reads bill
  // here, while per-unit work inside `fn` re-tags itself (child probes are
  // kIndexProbe via MaterializeUnit, temp spills kTempSort, cache traffic
  // kCacheFetch/kCacheMaint). Innermost tag wins.
  ScopedIoTag io_tag(IoTag::kParentScan);
  BPlusTree::Iterator it = db->parent_rel->tree().NewIterator();
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  // Read ahead along the parent leaves of [lo_parent, end): every leaf in
  // the window is certain to be scanned, and staged pages are immune to
  // eviction, so the window survives however much child-leaf I/O the
  // callback does between parent leaves. With prefetch disabled SeekRange
  // is exactly Seek.
  OBJREP_RETURN_NOT_OK(it.SeekRange(q.lo_parent, end - 1));
  const Schema& schema = db->parent_rel->schema();
  while (it.valid() && it.key() < end) {
    Value children;
    OBJREP_RETURN_NOT_OK(
        DecodeField(schema, it.value(), kParentChildren, &children));
    std::vector<Oid> unit = DecodeOidList(children.as_string());
    OBJREP_RETURN_NOT_OK(fn(static_cast<uint32_t>(it.key()), unit));
    OBJREP_RETURN_NOT_OK(it.Next());
  }
  return Status::OK();
}

namespace {

/// Read-ahead pass of MaterializeUnit: sorts the unit's OIDs into physical
/// leaf order and stages the child leaves they land in through
/// BPlusTree::HintLeavesForKeys — one vectored read per relation instead
/// of a random single-page read per child. The pass performs no probes and
/// is invisible to counts and recency, so the caller's reference-order Get
/// loop below sees bit-identical I/O to the demand-paged execution; only
/// the read *timing* moves earlier (DESIGN.md §9).
Status BatchProbeUnit(ComplexDatabase* db, const std::vector<Oid>& unit) {
  // Group per relation; each group sorted by key is one hint batch.
  std::vector<std::pair<uint64_t, RelationId>> sorted;
  sorted.reserve(unit.size());
  for (const Oid& oid : unit) {
    sorted.emplace_back(oid.key, oid.rel);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  std::vector<uint64_t> keys;
  keys.reserve(sorted.size());
  size_t i = 0;
  while (i < sorted.size()) {
    RelationId rel = sorted[i].second;
    keys.clear();
    for (; i < sorted.size() && sorted[i].second == rel; ++i) {
      keys.push_back(sorted[i].first);
    }
    const Table* table = db->ChildRelById(rel);
    if (table == nullptr) {
      return Status::Corruption("child OID references unknown relation");
    }
    table->tree().HintLeavesForKeys(keys.data(), keys.size());
  }
  return Status::OK();
}

}  // namespace

Status MaterializeUnit(ComplexDatabase* db, const std::vector<Oid>& unit,
                       int attr_index, std::vector<std::string>* raw_records,
                       std::vector<int32_t>* values) {
  // Random child-index descents — the DFS family's dominant cost (paper
  // §4). Covers the hint pass too (the hint's actual disk reads re-tag
  // kPrefetch inside BufferPool::Prefetch; only timing moves, DESIGN.md §9).
  ScopedIoTag tag(IoTag::kIndexProbe);
  if (raw_records != nullptr) raw_records->clear();
  if (db->pool->prefetch_enabled() && unit.size() >= 2) {
    OBJREP_RETURN_NOT_OK(BatchProbeUnit(db, unit));
  }
  for (const Oid& oid : unit) {
    const Table* table = db->ChildRelById(oid.rel);
    if (table == nullptr) {
      return Status::Corruption("child OID references unknown relation");
    }
    std::string raw;
    OBJREP_RETURN_NOT_OK(table->tree().Get(oid.key, &raw));
    int32_t v;
    OBJREP_RETURN_NOT_OK(
        DecodeChildRet(table->schema(), raw, attr_index, &v));
    values->push_back(v);
    if (raw_records != nullptr) raw_records->push_back(std::move(raw));
  }
  return Status::OK();
}

Status ProjectUnitBlob(ComplexDatabase* db, std::string_view blob,
                       int attr_index, std::vector<int32_t>* values) {
  std::vector<std::string_view> records;
  OBJREP_RETURN_NOT_OK(DecodeUnitBlob(blob, &records));
  // All child relations share one schema shape; use the first.
  const Schema& schema = db->child_rels[0]->schema();
  for (std::string_view raw : records) {
    int32_t v;
    OBJREP_RETURN_NOT_OK(DecodeChildRet(schema, raw, attr_index, &v));
    values->push_back(v);
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace objrep
