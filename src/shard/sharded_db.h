// Horizontal sharding of one logical ComplexDatabase (DESIGN.md §14).
//
// A ShardedDatabase carves the logical database of `spec` into N fully
// independent engine instances. Each shard owns its own simulated disk,
// buffer pool, cache, WAL, and relations; no page, frame, or latch is
// shared between shards. Partitioning:
//
//   * ParentRel rows are hash-partitioned by parent key (ShardRouter).
//   * A shard replicates every child row referenced by a unit one of its
//     local parents uses, so retrieves never cross shards. Children in no
//     unit park on a hash-chosen shard.
//   * ClusterRel, the ISAM index, the join index, and the cache are built
//     per shard over the local rows only, in the same catalog registration
//     order as the single-engine build — relation ids (and therefore
//     packed OIDs) are identical on every shard and in BuildDatabase.
//
// The build generates the spec's ground truth once (GenerateDatabase, the
// same draws BuildDatabase makes) and loads each shard's slice of it
// straight from the generated rows, one shard after another. It never
// builds or reads the single-engine volume, so the logical content is
// bit-identical to the unsharded database for the same spec — the
// property the differential oracle in tests/ checks.
#ifndef OBJREP_SHARD_SHARDED_DB_H_
#define OBJREP_SHARD_SHARDED_DB_H_

#include <memory>
#include <vector>

#include "objstore/database.h"
#include "shard/router.h"

namespace objrep {
namespace shard {

struct ShardedDatabase {
  DatabaseSpec spec;  ///< the logical (global) spec
  ShardRouter router{1};
  std::vector<std::unique_ptr<ComplexDatabase>> shards;
  /// Parent keys local to each shard, ascending.
  std::vector<std::vector<uint32_t>> local_parents;
  /// The generated ground truth the shards were loaded from: catalog and
  /// rows only, with no disk, pool or page. Kept for workload generation
  /// and tests; the engine never touches it. Callers may reset() it to
  /// reclaim memory.
  std::unique_ptr<ComplexDatabase> reference;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards.size());
  }
};

/// Generates `spec`'s ground truth, then loads its rows into `num_shards`
/// independent engines. Deterministic in `spec.seed`. InvalidArgument
/// unless 1 <= num_shards <= ShardRouter::kMaxShards.
/// Each shard returns flushed with zeroed I/O counters, like BuildDatabase.
Status BuildShardedDatabase(const DatabaseSpec& spec, uint32_t num_shards,
                            std::unique_ptr<ShardedDatabase>* out);

}  // namespace shard
}  // namespace objrep

#endif  // OBJREP_SHARD_SHARDED_DB_H_
