// The simulated complex-object database (paper §4).
//
// One ComplexDatabase owns a simulated disk, a buffer pool, and the
// relations of one experimental configuration:
//   * ParentRel           — the complex objects (B-tree on OID key)
//   * ChildRel[0..n)      — the subobjects (B-tree on OID key each)
//   * ClusterRel + ISAM   — when clustering is enabled (paper §3.3)
//   * Cache (hash file)   — when caching is enabled (paper §3.2)
//
// Generation and loading are separate phases (builder.cc). GenerateDatabase
// draws the ground truth — units, assignments, row values — into a
// ComplexDatabase that has a catalog but no disk, pool or page; LoadVolume
// bulk loads a slice of it into a fresh volume. A built database keeps its
// ground truth so tests can verify strategy results independently.
#ifndef OBJREP_OBJSTORE_DATABASE_H_
#define OBJREP_OBJSTORE_DATABASE_H_

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "access/isam.h"
#include "mvcc/version_store.h"
#include "objstore/cache_manager.h"
#include "objstore/oid.h"
#include "objstore/rows.h"
#include "objstore/spec.h"
#include "relational/table.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "util/macros.h"
#include "util/status.h"

namespace objrep {

struct ComplexDatabase {
  DatabaseSpec spec;

  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<Wal> wal;  // null unless spec.enable_wal
  /// Version store for snapshot reads (DESIGN.md §15); null unless
  /// spec.enable_mvcc. When set, executors bypass table locking: retrieves
  /// run under mvcc::SnapshotRetrieve and updates under mvcc::MvccUpdate.
  std::unique_ptr<MvccManager> mvcc;
  Catalog catalog;

  Table* parent_rel = nullptr;
  std::vector<Table*> child_rels;
  Table* cluster_rel = nullptr;            // null unless spec.build_cluster
  IsamIndex cluster_oid_index;             // packed child OID -> ClusterRel key
  std::unique_ptr<CacheManager> cache;     // null unless spec.build_cache
  /// Join index ([VALD86]): key (parent key << 12 | position) -> packed
  /// child OID. Built when spec.build_join_index.
  BPlusTree join_index;
  bool has_join_index = false;

  uint32_t parent_dummy_width = 0;
  uint32_t child_dummy_width = 0;

  // --- Generation ground truth (verification only; strategies must read
  //     everything they use from the relations). ---
  std::vector<std::vector<Oid>> units;       // unit id -> member OIDs
  std::vector<uint32_t> unit_of_parent;      // parent key -> unit id
  std::vector<uint32_t> unit_owner;          // unit id -> owning parent key
                                             // (clustering only)
  std::vector<uint32_t> unit_claim_order;    // units in the random order
                                             // they claim their subobjects
                                             // (clustering only)
  std::vector<std::vector<ChildRow>> child_rows;  // per child rel, by key
  std::vector<std::array<int32_t, 3>> parent_rets;  // parent key -> ret1..3

  /// Parent `p`'s row as generated.
  ParentRow ParentRowOf(uint32_t p) const {
    return ParentRow{Oid{parent_rel->rel_id(), p}, parent_rets[p][0],
                     parent_rets[p][1], parent_rets[p][2],
                     units[unit_of_parent[p]]};
  }
  /// The generated row of child `oid`.
  const ChildRow& ChildRowOf(const Oid& oid) const {
    for (size_t r = 0; r < child_rels.size(); ++r) {
      if (child_rels[r]->rel_id() == oid.rel) return child_rows[r][oid.key];
    }
    OBJREP_CHECK_MSG(false, "child OID references unknown relation");
    return child_rows[0][0];
  }

  /// Child relation whose catalog id is `rel_id`; null if unknown.
  const Table* ChildRelById(RelationId rel_id) const {
    for (const Table* t : child_rels) {
      if (t->rel_id() == rel_id) return t;
    }
    return nullptr;
  }
  Table* ChildRelById(RelationId rel_id) {
    for (Table* t : child_rels) {
      if (t->rel_id() == rel_id) return t;
    }
    return nullptr;
  }

  /// Total pages occupied on the simulated disk (allocated minus freed).
  uint64_t TotalPages() const {
    return disk->num_pages() - disk->num_free_pages();
  }
};

/// Generates and bulk-loads a database per `spec`. Deterministic in
/// `spec.seed`. On return the buffer pool is flushed and the I/O counters
/// reset, so measurements start clean.
Status BuildDatabase(const DatabaseSpec& spec,
                     std::unique_ptr<ComplexDatabase>* out);

/// Generates `spec`'s ground truth (paper §4): the catalog, child rows,
/// units, unit assignment, parent ret values and, with clustering, unit
/// owners and claim order. Draws random numbers in BuildDatabase's order
/// and allocates no disk, pool or page. Deterministic in `spec.seed`.
Status GenerateDatabase(const DatabaseSpec& spec,
                        std::unique_ptr<ComplexDatabase>* out);

/// Sets `db`'s dummy widths and registers its relations in the fixed order
/// ParentRel, ChildRel..., ClusterRel from `db->spec`. Relation ids follow
/// registration order, so every database registered from one spec agrees
/// on packed OIDs.
void RegisterRelations(ComplexDatabase* db);

/// A set of the child rows of one generated database: a bitmap per child
/// relation, indexed by key. Child keys are dense (0..children_per_rel-1)
/// and child relation ids consecutive, so no hashing is needed.
class ChildSet {
 public:
  ChildSet() = default;
  /// An empty set sized for every child row of `db`.
  explicit ChildSet(const ComplexDatabase& db);

  /// Adds `oid`; returns false when it was already present.
  bool Insert(const Oid& oid) {
    std::vector<bool>::reference bit = bits_[oid.rel - first_rel_][oid.key];
    if (bit) return false;
    bit = true;
    return true;
  }
  bool Contains(const Oid& oid) const {
    return bits_[oid.rel - first_rel_][oid.key];
  }

 private:
  RelationId first_rel_ = 0;
  std::vector<std::vector<bool>> bits_;  // [rel - first_rel_][key]
};

/// The part of a generated database that one volume stores.
struct VolumeSlice {
  /// Every row: the single-engine build. A whole load also reads each
  /// ParentRel row back through the pool before it builds ClusterRel.
  bool whole = false;
  /// ParentRel keys stored, ascending.
  std::vector<uint32_t> parents;
  /// The child rows stored, unless `whole`.
  ChildSet children;
  /// Clustering only: (unit, owning parent) in claim order. Each unit
  /// places its members not yet placed in its owner's cluster.
  std::vector<std::pair<uint32_t, uint32_t>> claims;

  bool StoresChild(const Oid& oid) const {
    return whole || children.Contains(oid);
  }
};

/// Loads `slice` of the generated database `truth` into `db`, whose spec
/// and relations are already registered (`db` may be `truth` itself): a
/// fresh disk and pool, the bulk-loaded relations and indexes, then cache,
/// WAL and MVCC. Rows stream from the generated truth straight into the
/// leaves, one reused row per relation. It flushes before it applies the
/// spec's device latency and read-ahead, so the build sleeps on no
/// simulated device, and returns with the I/O counters reset.
Status LoadVolume(const ComplexDatabase& truth, const VolumeSlice& slice,
                  ComplexDatabase* db);

/// What Recover did, for tests and the driver's crash demo.
struct RecoveryReport {
  WalRecoveryStats wal;
  uint64_t frames_dropped = 0;  ///< pool frames discarded (soft state)
  bool cache_reset = false;     ///< Cache relation rebuilt empty
  uint64_t mvcc_txns_redone = 0;///< kMvccUpdate commits replayed to base
};

/// Crash recovery (DESIGN.md §10). Clears the injector's crashed state,
/// discards every buffer-pool frame, redoes the WAL's committed-but-
/// unapplied transactions against the disk, and rebuilds the cache (soft
/// state) empty. Requires spec.enable_wal. After it returns the base
/// relations hold exactly the committed prefix of the update history.
Status RecoverDatabase(ComplexDatabase* db, RecoveryReport* report = nullptr);

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_DATABASE_H_
