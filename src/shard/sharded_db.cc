#include "shard/sharded_db.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "objstore/rows.h"
#include "util/macros.h"

namespace objrep {
namespace shard {

namespace {

/// Child-relation index (0..num_child_rels) of a catalog relation id.
/// Registration order is fixed, so this is the same on every shard.
Status ChildIndexOf(const ComplexDatabase& ref, RelationId rel_id,
                    size_t* out) {
  for (size_t r = 0; r < ref.child_rels.size(); ++r) {
    if (ref.child_rels[r]->rel_id() == rel_id) {
      *out = r;
      return Status::OK();
    }
  }
  return Status::Corruption("child OID references unknown relation");
}

/// Builds one shard: the subset of the reference database owned by
/// `local` (ascending parent keys), plus the orphan children parked here.
Status BuildOneShard(const ComplexDatabase& ref,
                     const std::vector<uint32_t>& local,
                     const std::vector<uint64_t>& local_orphans,
                     std::unique_ptr<ComplexDatabase>* out) {
  const DatabaseSpec& spec = ref.spec;
  auto db = std::make_unique<ComplexDatabase>();
  db->spec = spec;
  db->disk = std::make_unique<DiskManager>();
  db->pool = std::make_unique<BufferPool>(db->disk.get(), spec.buffer_pages);
  db->parent_dummy_width = ref.parent_dummy_width;
  db->child_dummy_width = ref.child_dummy_width;

  // Catalog registration mirrors BuildDatabase exactly: relation ids are
  // assigned by registration order, and they must match the reference so
  // packed OIDs mean the same thing on every shard.
  db->parent_rel = db->catalog.Register(
      "ParentRel", MakeParentSchema(db->parent_dummy_width));
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    std::string name = spec.num_child_rels == 1
                           ? std::string("ChildRel")
                           : "ChildRel" + std::to_string(r);
    db->child_rels.push_back(db->catalog.Register(
        std::move(name), MakeChildSchema(db->child_dummy_width)));
  }
  if (spec.build_cluster) {
    db->cluster_rel = db->catalog.Register(
        "ClusterRel", MakeClusterSchema(std::max(db->parent_dummy_width,
                                                 db->child_dummy_width)));
  }

  // --- Local working set: units my parents use, children those units
  //     reference, plus the orphans parked here. ---
  std::vector<uint32_t> used_units;
  for (uint32_t p : local) {
    used_units.push_back(ref.unit_of_parent[p]);
  }
  std::sort(used_units.begin(), used_units.end());
  used_units.erase(std::unique(used_units.begin(), used_units.end()),
                   used_units.end());

  std::unordered_set<uint64_t> local_children;
  for (uint32_t u : used_units) {
    for (const Oid& oid : ref.units[u]) {
      local_children.insert(oid.Packed());
    }
  }
  for (uint64_t packed : local_orphans) {
    local_children.insert(packed);
  }

  // --- Bulk load ParentRel from the reference rows. ---
  {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(local.size());
    for (uint32_t p : local) {
      std::vector<Value> vals;
      OBJREP_RETURN_NOT_OK(ref.parent_rel->Get(p, &vals));
      rows.emplace_back(p, std::move(vals));
    }
    OBJREP_RETURN_NOT_OK(
        db->parent_rel->BulkLoad(db->pool.get(), rows, spec.fill_factor));
  }

  // --- Bulk load each ChildRel: the local keys, ascending. ---
  const uint32_t children_per_rel =
      spec.num_children_total() / spec.num_child_rels;
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    RelationId rel_id = db->child_rels[r]->rel_id();
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    for (uint32_t k = 0; k < children_per_rel; ++k) {
      if (local_children.count(Oid{rel_id, k}.Packed()) == 0) continue;
      rows.emplace_back(
          k, ChildRowValues(ref.child_rows[r][k], db->child_dummy_width));
    }
    OBJREP_RETURN_NOT_OK(
        db->child_rels[r]->BulkLoad(db->pool.get(), rows, spec.fill_factor));
  }

  // --- ClusterRel: claim locally. The reference's random claim order
  //     interleaves all parents; a shard only sees its own, so it claims
  //     deterministically (units ascending) and keeps the reference owner
  //     when that owner is local, else the smallest local user. Physical
  //     placement differs from the reference — placement is an I/O cost
  //     concern, not a correctness one — but each local parent's cluster
  //     record carries the same unit list, and the local ISAM index covers
  //     every local child, so DFSCLUST answers are identical. ---
  if (spec.build_cluster) {
    std::unordered_map<uint32_t, std::vector<uint32_t>> users_local;
    for (uint32_t p : local) {  // ascending, so user lists come out sorted
      users_local[ref.unit_of_parent[p]].push_back(p);
    }
    std::unordered_set<uint64_t> placed;
    std::unordered_map<uint32_t, std::vector<Oid>> claimed;
    for (uint32_t u : used_units) {
      uint32_t ref_owner = ref.unit_owner[u];
      const std::vector<uint32_t>& users = users_local[u];
      OBJREP_CHECK(!users.empty());
      bool ref_owner_local =
          std::binary_search(users.begin(), users.end(), ref_owner);
      uint32_t owner = ref_owner_local ? ref_owner : users.front();
      for (const Oid& oid : ref.units[u]) {
        if (placed.insert(oid.Packed()).second) {
          claimed[owner].push_back(oid);
        }
      }
    }

    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    std::vector<IsamIndex::Entry> isam_entries;
    for (uint32_t p : local) {
      ParentRow prow;
      prow.oid = Oid{db->parent_rel->rel_id(), p};
      std::vector<Value> parent_vals;
      OBJREP_RETURN_NOT_OK(ref.parent_rel->Get(p, &parent_vals));
      prow.ret1 = parent_vals[kParentRet1].as_int32();
      prow.ret2 = parent_vals[kParentRet2].as_int32();
      prow.ret3 = parent_vals[kParentRet3].as_int32();
      prow.children = ref.units[ref.unit_of_parent[p]];
      rows.emplace_back(ClusterKey(p, 0),
                        ClusterParentValues(prow, db->parent_dummy_width));
      uint32_t seq = 1;
      for (const Oid& oid : claimed[p]) {
        size_t r;
        OBJREP_RETURN_NOT_OK(ChildIndexOf(ref, oid.rel, &r));
        std::vector<Value> cvals = ClusterChildValues(
            ref.child_rows[r][oid.key], db->child_dummy_width);
        cvals[kClusterNo] = Value(static_cast<int64_t>(p));
        uint64_t key = ClusterKey(p, seq++);
        isam_entries.push_back(IsamIndex::Entry{oid.Packed(), key});
        rows.emplace_back(key, std::move(cvals));
      }
    }

    // Local children claimed by no local cluster (the orphans parked on
    // this shard): trailing clusters past the last parent, exactly like
    // the reference build, so no retrieve scan range ever reaches them.
    uint64_t orphan_cluster = spec.num_parents;
    uint32_t orphan_seq = 0;
    for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
      RelationId rel_id = db->child_rels[r]->rel_id();
      for (uint32_t k = 0; k < children_per_rel; ++k) {
        uint64_t packed = Oid{rel_id, k}.Packed();
        if (local_children.count(packed) == 0) continue;
        if (placed.find(packed) != placed.end()) continue;
        if (orphan_seq == spec.size_unit) {
          ++orphan_cluster;
          orphan_seq = 0;
        }
        std::vector<Value> cvals = ClusterChildValues(
            ref.child_rows[r][k], db->child_dummy_width);
        cvals[kClusterNo] = Value(static_cast<int64_t>(orphan_cluster));
        uint64_t key = ClusterKey(orphan_cluster, orphan_seq++);
        isam_entries.push_back(IsamIndex::Entry{packed, key});
        rows.emplace_back(key, std::move(cvals));
      }
    }

    OBJREP_RETURN_NOT_OK(
        db->cluster_rel->BulkLoad(db->pool.get(), rows, spec.fill_factor));
    std::sort(isam_entries.begin(), isam_entries.end(),
              [](const IsamIndex::Entry& a, const IsamIndex::Entry& b) {
                return a.key < b.key;
              });
    OBJREP_RETURN_NOT_OK(IsamIndex::Build(db->pool.get(), isam_entries,
                                          &db->cluster_oid_index,
                                          spec.cluster_index_entry_bytes));
  }

  if (spec.build_join_index) {
    std::vector<BPlusTree::Entry> entries;
    for (uint32_t p : local) {
      const std::vector<Oid>& unit = ref.units[ref.unit_of_parent[p]];
      for (uint32_t j = 0; j < unit.size(); ++j) {
        uint64_t packed = unit[j].Packed();
        entries.push_back(BPlusTree::Entry{
            (static_cast<uint64_t>(p) << 12) | j,
            std::string(reinterpret_cast<const char*>(&packed), 8)});
      }
    }
    OBJREP_RETURN_NOT_OK(BPlusTree::BulkLoad(db->pool.get(), entries,
                                             spec.fill_factor,
                                             &db->join_index));
    db->has_join_index = true;
  }

  if (spec.build_cache) {
    db->cache = std::make_unique<CacheManager>(
        db->pool.get(), spec.size_cache, spec.cache_buckets,
        spec.cache_admission);
    OBJREP_RETURN_NOT_OK(db->cache->Init());
  }

  if (spec.enable_wal) {
    db->wal = std::make_unique<Wal>(db->disk.get());
    db->pool->AttachWal(db->wal.get());
  }
  if (spec.enable_mvcc) {
    // Per-shard version store and clock — snapshots are per-shard, like
    // the WAL transactions above (no cross-shard 2PC; see engine.h).
    db->mvcc = std::make_unique<MvccManager>(db->wal.get());
  }

  db->disk->set_io_latency_us(spec.io_latency_us);
  db->disk->set_transfer_us(spec.io_transfer_us);
  db->pool->SetPrefetchOptions(
      PrefetchOptions{spec.prefetch, spec.readahead_pages});

  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  db->disk->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

}  // namespace

Status BuildShardedDatabase(const DatabaseSpec& spec, uint32_t num_shards,
                            std::unique_ptr<ShardedDatabase>* out) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  auto sdb = std::make_unique<ShardedDatabase>();
  sdb->spec = spec;
  sdb->router = ShardRouter(num_shards);
  OBJREP_RETURN_NOT_OK(BuildDatabase(spec, &sdb->reference));
  const ComplexDatabase& ref = *sdb->reference;

  sdb->local_parents.resize(num_shards);
  for (uint32_t p = 0; p < spec.num_parents; ++p) {
    sdb->local_parents[sdb->router.ShardOfParent(p)].push_back(p);
  }

  // Children referenced by no unit (possible when OverlapFactor > 1) park
  // on a hash-chosen shard so every child row lives somewhere.
  std::unordered_set<uint64_t> in_some_unit;
  for (const std::vector<Oid>& unit : ref.units) {
    for (const Oid& oid : unit) {
      in_some_unit.insert(oid.Packed());
    }
  }
  std::vector<std::vector<uint64_t>> orphans_of(num_shards);
  for (const std::vector<ChildRow>& rows : ref.child_rows) {
    for (const ChildRow& row : rows) {
      uint64_t packed = row.oid.Packed();
      if (in_some_unit.find(packed) == in_some_unit.end()) {
        orphans_of[sdb->router.OrphanShardOf(packed)].push_back(packed);
      }
    }
  }

  sdb->shards.resize(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    OBJREP_RETURN_NOT_OK(BuildOneShard(ref, sdb->local_parents[k],
                                       orphans_of[k], &sdb->shards[k]));
  }

  // Holder sets: shard k holds every child it replicated. Updates fan out
  // to all holders (DESIGN.md §14 invalidation protocol).
  for (uint32_t k = 0; k < num_shards; ++k) {
    for (uint32_t p : sdb->local_parents[k]) {
      for (const Oid& oid : ref.units[ref.unit_of_parent[p]]) {
        sdb->router.AddHolder(oid.Packed(), k);
      }
    }
    for (uint64_t packed : orphans_of[k]) {
      sdb->router.AddHolder(packed, k);
    }
  }
  *out = std::move(sdb);
  return Status::OK();
}

}  // namespace shard
}  // namespace objrep
