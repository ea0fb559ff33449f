// Database generation (paper §4).
//
// |ChildRel| = |ParentRel| * SizeUnit / ShareFactor            (eqn. 1)
// NumUnits  = |ParentRel| / UseFactor
//
// Units are "randomly generated" from the subobjects and "randomly
// assigned" to objects. Concretely:
//   * OverlapFactor == 1 — the subobjects are randomly partitioned into
//     disjoint units (paper §3.3 case [2]: subobjects shared "in units").
//   * OverlapFactor  > 1 — each unit samples SizeUnit distinct subobjects
//     uniformly; the expected number of units sharing a subobject is then
//     exactly OverlapFactor (paper §3.3 case [3]: random sharing).
//   * Each unit is assigned to exactly UseFactor objects (a random
//     perfect replication, so sharing is uniform as in the paper).
//
// Clustering assignment (spec.build_cluster): every unit's owner is a
// uniformly random parent among its UseFactor users ("o should be randomly
// chosen from UseFactor possibilities"); units claim their not-yet-placed
// subobjects in random unit order, reproducing the fragmentation the paper
// describes for OverlapFactor > 1 (§3.3 case [3]).
#include <algorithm>
#include <numeric>

#include "objstore/database.h"
#include "util/random.h"

namespace objrep {

namespace {

Status BuildClusterRel(ComplexDatabase* db, Rng* rng) {
  const DatabaseSpec& spec = db->spec;
  const uint32_t num_units = spec.num_units();

  // 1. Pick each unit's owner uniformly among its users.
  std::vector<std::vector<uint32_t>> users_of_unit(num_units);
  for (uint32_t p = 0; p < spec.num_parents; ++p) {
    users_of_unit[db->unit_of_parent[p]].push_back(p);
  }
  db->unit_owner.assign(num_units, 0);
  for (uint32_t u = 0; u < num_units; ++u) {
    const auto& users = users_of_unit[u];
    OBJREP_CHECK(!users.empty());
    db->unit_owner[u] = users[rng->Uniform(users.size())];
  }

  // 2. Claim subobjects in random unit order: a subobject is physically
  //    placed with the first unit that claims it.
  std::vector<uint32_t> unit_order(num_units);
  std::iota(unit_order.begin(), unit_order.end(), 0);
  rng->Shuffle(&unit_order);
  std::unordered_map<uint64_t, bool> placed;
  std::vector<std::vector<Oid>> claimed_children(spec.num_parents);
  for (uint32_t u : unit_order) {
    uint32_t owner = db->unit_owner[u];
    for (const Oid& oid : db->units[u]) {
      auto [it, inserted] = placed.emplace(oid.Packed(), true);
      if (inserted) {
        claimed_children[owner].push_back(oid);
      }
    }
  }

  // 3. Emit cluster rows in composite-key order:
  //    (parent key, 0) = parent record, (parent key, 1..) = its claim.
  std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
  rows.reserve(spec.num_parents * (1 + spec.size_unit));
  const Schema& cluster_schema = db->cluster_rel->schema();
  (void)cluster_schema;
  std::vector<IsamIndex::Entry> isam_entries;

  auto child_row_of = [db](const Oid& oid) -> const ChildRow& {
    // Child rel index from catalog id: child_rels are registered in order.
    for (size_t r = 0; r < db->child_rels.size(); ++r) {
      if (db->child_rels[r]->rel_id() == oid.rel) {
        return db->child_rows[r][oid.key];
      }
    }
    OBJREP_CHECK_MSG(false, "child OID references unknown relation");
    return db->child_rows[0][0];
  };

  for (uint32_t p = 0; p < spec.num_parents; ++p) {
    ParentRow prow;
    prow.oid = Oid{db->parent_rel->rel_id(), p};
    // ret values for the cluster copy of the parent mirror ParentRel.
    std::vector<Value> parent_vals;
    OBJREP_RETURN_NOT_OK(db->parent_rel->Get(p, &parent_vals));
    prow.ret1 = parent_vals[kParentRet1].as_int32();
    prow.ret2 = parent_vals[kParentRet2].as_int32();
    prow.ret3 = parent_vals[kParentRet3].as_int32();
    prow.children = db->units[db->unit_of_parent[p]];
    std::vector<Value> vals = ClusterParentValues(prow, db->parent_dummy_width);
    rows.emplace_back(ClusterKey(p, 0), std::move(vals));
    uint32_t seq = 1;
    for (const Oid& oid : claimed_children[p]) {
      const ChildRow& crow = child_row_of(oid);
      std::vector<Value> cvals =
          ClusterChildValues(crow, db->child_dummy_width);
      cvals[kClusterNo] = Value(static_cast<int64_t>(p));
      uint64_t key = ClusterKey(p, seq++);
      isam_entries.push_back(IsamIndex::Entry{oid.Packed(), key});
      rows.emplace_back(key, std::move(cvals));
    }
  }

  // 4. Orphan subobjects (possible when OverlapFactor > 1 leaves a child in
  //    no unit): parked in trailing clusters past the last parent. They are
  //    unreferenced, so they cost space but never I/O.
  uint64_t orphan_cluster = spec.num_parents;
  uint32_t orphan_seq = 0;
  for (size_t r = 0; r < db->child_rels.size(); ++r) {
    for (const ChildRow& crow : db->child_rows[r]) {
      if (placed.find(crow.oid.Packed()) != placed.end()) continue;
      if (orphan_seq == spec.size_unit) {
        ++orphan_cluster;
        orphan_seq = 0;
      }
      std::vector<Value> cvals =
          ClusterChildValues(crow, db->child_dummy_width);
      cvals[kClusterNo] = Value(static_cast<int64_t>(orphan_cluster));
      uint64_t key = ClusterKey(orphan_cluster, orphan_seq++);
      isam_entries.push_back(IsamIndex::Entry{crow.oid.Packed(), key});
      rows.emplace_back(key, std::move(cvals));
    }
  }

  OBJREP_RETURN_NOT_OK(
      db->cluster_rel->BulkLoad(db->pool.get(), rows, spec.fill_factor));

  std::sort(isam_entries.begin(), isam_entries.end(),
            [](const IsamIndex::Entry& a, const IsamIndex::Entry& b) {
              return a.key < b.key;
            });
  return IsamIndex::Build(db->pool.get(), isam_entries,
                          &db->cluster_oid_index,
                          spec.cluster_index_entry_bytes);
}

}  // namespace

Status BuildDatabase(const DatabaseSpec& spec,
                     std::unique_ptr<ComplexDatabase>* out) {
  OBJREP_RETURN_NOT_OK(spec.Validate());
  auto db = std::make_unique<ComplexDatabase>();
  db->spec = spec;
  db->disk = std::make_unique<DiskManager>();
  db->pool = std::make_unique<BufferPool>(db->disk.get(), spec.buffer_pages);
  Rng rng(spec.seed);

  db->parent_dummy_width =
      ParentDummyWidth(spec.parent_tuple_bytes, spec.size_unit);
  db->child_dummy_width = ChildDummyWidth(spec.child_tuple_bytes);

  db->parent_rel =
      db->catalog.Register("ParentRel", MakeParentSchema(db->parent_dummy_width));
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    std::string name = spec.num_child_rels == 1
                           ? std::string("ChildRel")
                           : "ChildRel" + std::to_string(r);
    db->child_rels.push_back(
        db->catalog.Register(std::move(name),
                             MakeChildSchema(db->child_dummy_width)));
  }
  if (spec.build_cluster) {
    db->cluster_rel = db->catalog.Register(
        "ClusterRel",
        MakeClusterSchema(std::max(db->parent_dummy_width,
                                   db->child_dummy_width)));
  }

  // --- Generate subobjects. ---
  const uint32_t children_per_rel =
      spec.num_children_total() / spec.num_child_rels;
  db->child_rows.resize(spec.num_child_rels);
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    auto& rows = db->child_rows[r];
    rows.reserve(children_per_rel);
    for (uint32_t k = 0; k < children_per_rel; ++k) {
      ChildRow row;
      row.oid = Oid{db->child_rels[r]->rel_id(), k};
      row.ret1 = static_cast<int32_t>(rng.Uniform(1000000));
      row.ret2 = static_cast<int32_t>(rng.Uniform(1000000));
      row.ret3 = static_cast<int32_t>(rng.Uniform(1000000));
      rows.push_back(row);
    }
  }

  // --- Generate units (per child relation). ---
  const uint32_t num_units = spec.num_units();
  const uint32_t units_per_rel = num_units / spec.num_child_rels;
  db->units.reserve(num_units);
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    RelationId rel_id = db->child_rels[r]->rel_id();
    if (spec.overlap_factor == 1) {
      // Disjoint units: random partition of this relation's subobjects.
      std::vector<uint32_t> keys(children_per_rel);
      std::iota(keys.begin(), keys.end(), 0);
      rng.Shuffle(&keys);
      OBJREP_CHECK(units_per_rel * spec.size_unit == children_per_rel);
      for (uint32_t u = 0; u < units_per_rel; ++u) {
        std::vector<Oid> unit;
        unit.reserve(spec.size_unit);
        for (uint32_t j = 0; j < spec.size_unit; ++j) {
          unit.push_back(Oid{rel_id, keys[u * spec.size_unit + j]});
        }
        db->units.push_back(std::move(unit));
      }
    } else {
      // Overlapping units: uniform sampling; E[units per subobject] ==
      // OverlapFactor by construction.
      for (uint32_t u = 0; u < units_per_rel; ++u) {
        std::vector<uint64_t> keys =
            rng.SampleDistinct(children_per_rel, spec.size_unit);
        std::vector<Oid> unit;
        unit.reserve(spec.size_unit);
        for (uint64_t k : keys) {
          unit.push_back(Oid{rel_id, static_cast<uint32_t>(k)});
        }
        db->units.push_back(std::move(unit));
      }
    }
  }

  // --- Assign units to parents: each unit used by exactly UseFactor
  //     objects, in random placement. ---
  std::vector<uint32_t> assignment;
  assignment.reserve(spec.num_parents);
  for (uint32_t u = 0; u < num_units; ++u) {
    for (uint32_t i = 0; i < spec.use_factor; ++i) {
      assignment.push_back(u);
    }
  }
  OBJREP_CHECK(assignment.size() == spec.num_parents);
  rng.Shuffle(&assignment);
  db->unit_of_parent = std::move(assignment);

  // --- Bulk load ParentRel. ---
  {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(spec.num_parents);
    for (uint32_t p = 0; p < spec.num_parents; ++p) {
      ParentRow row;
      row.oid = Oid{db->parent_rel->rel_id(), p};
      row.ret1 = static_cast<int32_t>(rng.Uniform(1000000));
      row.ret2 = static_cast<int32_t>(rng.Uniform(1000000));
      row.ret3 = static_cast<int32_t>(rng.Uniform(1000000));
      row.children = db->units[db->unit_of_parent[p]];
      rows.emplace_back(p, ParentRowValues(row, db->parent_dummy_width));
    }
    OBJREP_RETURN_NOT_OK(
        db->parent_rel->BulkLoad(db->pool.get(), rows, spec.fill_factor));
  }

  // --- Bulk load each ChildRel. ---
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    std::vector<std::pair<uint64_t, std::vector<Value>>> rows;
    rows.reserve(children_per_rel);
    for (uint32_t k = 0; k < children_per_rel; ++k) {
      rows.emplace_back(
          k, ChildRowValues(db->child_rows[r][k], db->child_dummy_width));
    }
    OBJREP_RETURN_NOT_OK(
        db->child_rels[r]->BulkLoad(db->pool.get(), rows, spec.fill_factor));
  }

  if (spec.build_cluster) {
    OBJREP_RETURN_NOT_OK(BuildClusterRel(db.get(), &rng));
  }

  if (spec.build_join_index) {
    // Dense (object, position) -> subobject OID mapping, in object order.
    std::vector<BPlusTree::Entry> entries;
    entries.reserve(static_cast<size_t>(spec.num_parents) * spec.size_unit);
    for (uint32_t p = 0; p < spec.num_parents; ++p) {
      const std::vector<Oid>& unit = db->units[db->unit_of_parent[p]];
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

  // Attach the WAL only now: the build is a single-owner bulk load with
  // nothing to recover to, so logging it would only slow it down. From here
  // on every multi-page mutation runs as a redo-logged transaction.
  if (spec.enable_wal) {
    db->wal = std::make_unique<Wal>(db->disk.get());
    db->pool->AttachWal(db->wal.get());
  }
  if (spec.enable_mvcc) {
    db->mvcc = std::make_unique<MvccManager>(db->wal.get());
  }

  // Apply the I/O scheduling policy only now: the build itself always runs
  // with the seed's plain demand paging, so on-disk layout and build-time
  // counters are independent of the prefetch configuration.
  db->disk->set_io_latency_us(spec.io_latency_us);
  db->disk->set_transfer_us(spec.io_transfer_us);
  db->pool->SetPrefetchOptions(
      PrefetchOptions{spec.prefetch, spec.readahead_pages});

  // Start measurements from a flushed, zeroed state.
  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  db->disk->ResetCounters();
  *out = std::move(db);
  return Status::OK();
}

}  // namespace objrep
