// Database generation (paper §4) and volume loading.
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
//
// Generation and loading are separate phases. GenerateDatabase draws every
// random number and touches no storage; LoadVolume bulk loads a slice of
// the generated rows into a fresh disk and pool. BuildDatabase loads the
// whole database; the shard loader loads one slice per shard.
#include <algorithm>
#include <numeric>
#include <string_view>

#include "objstore/database.h"
#include "util/random.h"

namespace objrep {

namespace {

/// ClusterRel and its ISAM index over `slice`: the claimed members of each
/// stored parent's cluster follow its parent record, and stored children
/// no unit claimed park in trailing clusters past the last parent. They
/// are unreferenced, so they cost space but never I/O.
Status LoadClusterRel(const ComplexDatabase& truth, const VolumeSlice& slice,
                      ComplexDatabase* db) {
  const DatabaseSpec& spec = db->spec;

  // 1. Claim: a subobject is physically placed with the first unit that
  //    claims it, in its owner's cluster.
  ChildSet placed(truth);
  std::vector<std::vector<Oid>> claimed(spec.num_parents);
  for (const auto& [u, owner] : slice.claims) {
    for (const Oid& oid : truth.units[u]) {
      if (placed.Insert(oid)) claimed[owner].push_back(oid);
    }
  }

  // 2. The whole-database load reads ParentRel back through the pool and
  //    checks it against the generated rows, all before ClusterRel's first
  //    page. The paper figures were measured from the pool state these
  //    reads leave behind.
  if (slice.whole) {
    std::vector<Value> vals;
    for (uint32_t p : slice.parents) {
      OBJREP_RETURN_NOT_OK(db->parent_rel->Get(p, &vals));
      if (vals[kParentRet1].as_int32() != truth.parent_rets[p][0] ||
          vals[kParentRet2].as_int32() != truth.parent_rets[p][1] ||
          vals[kParentRet3].as_int32() != truth.parent_rets[p][2]) {
        return Status::Corruption("ParentRel row differs from generation");
      }
    }
  }

  // 3. Stream cluster rows in composite-key order: (parent key, 0) is the
  //    parent record, (parent key, 1..) its claim; then the orphan
  //    subobjects (possible when OverlapFactor > 1 leaves a child in no
  //    unit), spec.size_unit to a trailing cluster.
  std::vector<Value> parent_row =
      ClusterParentValues(ParentRow{}, db->parent_dummy_width);
  std::vector<Value> child_row =
      ClusterChildValues(ChildRow{}, db->child_dummy_width);
  std::vector<IsamIndex::Entry> isam_entries;
  size_t pi = 0;      // slice.parents index of the current cluster
  uint32_t seq = 0;   // next sequence number within it
  size_t rel = 0;     // orphan scan position: child relation, then key
  size_t key = 0;
  uint64_t orphan_cluster = spec.num_parents;
  uint32_t orphan_seq = 0;
  auto next = [&](uint64_t* out_key) -> const std::vector<Value>* {
    while (pi < slice.parents.size()) {
      const uint32_t p = slice.parents[pi];
      if (seq == 0) {
        ++seq;
        *out_key = ClusterKey(p, 0);
        SetClusterParentValues(Oid{truth.parent_rel->rel_id(), p},
                               truth.parent_rets[p],
                               truth.units[truth.unit_of_parent[p]],
                               &parent_row);
        return &parent_row;
      }
      if (seq <= claimed[p].size()) {
        const Oid& oid = claimed[p][seq - 1];
        *out_key = ClusterKey(p, seq++);
        isam_entries.push_back(IsamIndex::Entry{oid.Packed(), *out_key});
        SetClusterChildValues(truth.ChildRowOf(oid), p, &child_row);
        return &child_row;
      }
      ++pi;
      seq = 0;
    }
    for (; rel < truth.child_rows.size(); ++rel, key = 0) {
      while (key < truth.child_rows[rel].size()) {
        const ChildRow& crow = truth.child_rows[rel][key++];
        if (!slice.StoresChild(crow.oid) || placed.Contains(crow.oid)) {
          continue;
        }
        if (orphan_seq == spec.size_unit) {
          ++orphan_cluster;
          orphan_seq = 0;
        }
        *out_key = ClusterKey(orphan_cluster, orphan_seq++);
        isam_entries.push_back(IsamIndex::Entry{crow.oid.Packed(), *out_key});
        SetClusterChildValues(crow, orphan_cluster, &child_row);
        return &child_row;
      }
    }
    return nullptr;
  };
  OBJREP_RETURN_NOT_OK(db->cluster_rel->BulkLoad(db->pool.get(), next));

  std::sort(isam_entries.begin(), isam_entries.end(),
            [](const IsamIndex::Entry& a, const IsamIndex::Entry& b) {
              return a.key < b.key;
            });
  return IsamIndex::Build(db->pool.get(), isam_entries, &db->cluster_oid_index);
}

}  // namespace

ChildSet::ChildSet(const ComplexDatabase& db)
    : first_rel_(db.child_rels.front()->rel_id()) {
  bits_.reserve(db.child_rows.size());
  for (size_t r = 0; r < db.child_rows.size(); ++r) {
    OBJREP_CHECK(db.child_rels[r]->rel_id() == first_rel_ + r);
    bits_.emplace_back(db.child_rows[r].size(), false);
  }
}

void RegisterRelations(ComplexDatabase* db) {
  const DatabaseSpec& spec = db->spec;
  db->parent_dummy_width =
      ParentDummyWidth(spec.parent_tuple_bytes, spec.size_unit);
  db->child_dummy_width = ChildDummyWidth(spec.child_tuple_bytes);

  db->parent_rel = db->catalog.Register(
      "ParentRel", MakeParentSchema(db->parent_dummy_width));
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
}

Status GenerateDatabase(const DatabaseSpec& spec,
                        std::unique_ptr<ComplexDatabase>* out) {
  OBJREP_RETURN_NOT_OK(spec.Validate());
  auto db = std::make_unique<ComplexDatabase>();
  db->spec = spec;
  RegisterRelations(db.get());
  Rng rng(spec.seed);

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

  // --- Parent ret values. ---
  db->parent_rets.resize(spec.num_parents);
  for (std::array<int32_t, 3>& rets : db->parent_rets) {
    for (int32_t& ret : rets) {
      ret = static_cast<int32_t>(rng.Uniform(1000000));
    }
  }

  // --- Clustering: each unit's owner, uniformly among its users, and the
  //     random order in which units claim their subobjects. ---
  if (spec.build_cluster) {
    std::vector<std::vector<uint32_t>> users_of_unit(num_units);
    for (uint32_t p = 0; p < spec.num_parents; ++p) {
      users_of_unit[db->unit_of_parent[p]].push_back(p);
    }
    db->unit_owner.assign(num_units, 0);
    for (uint32_t u = 0; u < num_units; ++u) {
      const auto& users = users_of_unit[u];
      OBJREP_CHECK(!users.empty());
      db->unit_owner[u] = users[rng.Uniform(users.size())];
    }
    db->unit_claim_order.resize(num_units);
    std::iota(db->unit_claim_order.begin(), db->unit_claim_order.end(), 0);
    rng.Shuffle(&db->unit_claim_order);
  }

  *out = std::move(db);
  return Status::OK();
}

Status LoadVolume(const ComplexDatabase& truth, const VolumeSlice& slice,
                  ComplexDatabase* db) {
  const DatabaseSpec& spec = db->spec;
  db->disk = std::make_unique<DiskManager>();
  db->pool = std::make_unique<BufferPool>(db->disk.get(), spec.buffer_pages);

  // --- Bulk load ParentRel. ---
  {
    std::vector<Value> row =
        ParentRowValues(ParentRow{}, db->parent_dummy_width);
    size_t i = 0;
    OBJREP_RETURN_NOT_OK(db->parent_rel->BulkLoad(
        db->pool.get(), [&](uint64_t* key) -> const std::vector<Value>* {
          if (i == slice.parents.size()) return nullptr;
          const uint32_t p = slice.parents[i++];
          *key = p;
          SetParentRowValues(Oid{truth.parent_rel->rel_id(), p},
                             truth.parent_rets[p],
                             truth.units[truth.unit_of_parent[p]], &row);
          return &row;
        }));
  }

  // --- Bulk load each ChildRel: the stored keys, ascending. ---
  for (uint32_t r = 0; r < spec.num_child_rels; ++r) {
    const std::vector<ChildRow>& child_rows = truth.child_rows[r];
    std::vector<Value> row =
        ChildRowValues(ChildRow{}, db->child_dummy_width);
    size_t i = 0;
    OBJREP_RETURN_NOT_OK(db->child_rels[r]->BulkLoad(
        db->pool.get(), [&](uint64_t* key) -> const std::vector<Value>* {
          while (i < child_rows.size()) {
            const ChildRow& crow = child_rows[i++];
            if (!slice.StoresChild(crow.oid)) continue;
            *key = crow.oid.key;
            SetChildRowValues(crow, &row);
            return &row;
          }
          return nullptr;
        }));
  }

  if (spec.build_cluster) {
    OBJREP_RETURN_NOT_OK(LoadClusterRel(truth, slice, db));
  }

  if (spec.build_join_index) {
    // Dense (object, position) -> subobject OID mapping, in object order.
    size_t i = 0;
    uint32_t j = 0;
    uint64_t packed = 0;
    OBJREP_RETURN_NOT_OK(BPlusTree::BulkLoad(
        db->pool.get(),
        [&](uint64_t* key, std::string_view* value) {
          for (; i < slice.parents.size(); ++i, j = 0) {
            const uint32_t p = slice.parents[i];
            const std::vector<Oid>& unit =
                truth.units[truth.unit_of_parent[p]];
            if (j == unit.size()) continue;
            *key = (static_cast<uint64_t>(p) << 12) | j;
            packed = unit[j++].Packed();
            *value =
                std::string_view(reinterpret_cast<const char*>(&packed), 8);
            return true;
          }
          return false;
        },
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
    // One version store and clock per volume: snapshots are per volume,
    // like the WAL transactions above (no cross-shard 2PC; see engine.h).
    db->mvcc = std::make_unique<MvccManager>(db->wal.get());
  }

  // Flush while the device is still free, then apply the device model and
  // the I/O scheduling policy: the whole build, its last write-backs
  // included, runs with the seed's zero-latency demand paging, so on-disk
  // layout, build time and build-time counters are independent of both.
  // Measurements start from a flushed, zeroed state.
  OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  db->disk->set_io_latency_us(spec.io_latency_us);
  db->disk->set_transfer_us(spec.io_transfer_us);
  db->pool->SetPrefetchEnabled(spec.prefetch);
  db->disk->ResetCounters();
  return Status::OK();
}

Status BuildDatabase(const DatabaseSpec& spec,
                     std::unique_ptr<ComplexDatabase>* out) {
  std::unique_ptr<ComplexDatabase> db;
  OBJREP_RETURN_NOT_OK(GenerateDatabase(spec, &db));
  VolumeSlice whole;
  whole.whole = true;
  whole.parents.resize(spec.num_parents);
  std::iota(whole.parents.begin(), whole.parents.end(), 0);
  for (uint32_t u : db->unit_claim_order) {
    whole.claims.emplace_back(u, db->unit_owner[u]);
  }
  OBJREP_RETURN_NOT_OK(LoadVolume(*db, whole, db.get()));
  *out = std::move(db);
  return Status::OK();
}

}  // namespace objrep
