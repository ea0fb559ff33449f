// All generation parameters of the simulated complex-object database
// (paper §4, "Experimental Setup").
#ifndef OBJREP_OBJSTORE_SPEC_H_
#define OBJREP_OBJSTORE_SPEC_H_

#include <cstdint>

#include "util/status.h"

namespace objrep {

/// What happens when a unit is inserted into a full cache.
enum class CacheAdmission {
  /// Evict the least-recently-used unit (default; ablation A1 compares).
  kEvictLru,
  /// Reject the insertion, leaving the cache unchanged.
  kRejectWhenFull,
};

struct DatabaseSpec {
  // --- Paper §4 data parameters. ---
  uint32_t num_parents = 10000;   ///< |ParentRel|
  uint32_t size_unit = 5;         ///< expected subobjects per unit
  uint32_t use_factor = 5;        ///< expected objects sharing a unit
  uint32_t overlap_factor = 1;    ///< expected units sharing a subobject
  uint32_t num_child_rels = 1;    ///< NumChildRel (paper §6.2)
  uint32_t parent_tuple_bytes = 200;
  uint32_t child_tuple_bytes = 100;

  // --- Environment. ---
  uint32_t buffer_pages = 100;    ///< INGRES main-memory buffer (paper §4)

  // --- Cache (paper §4 [3]). ---
  bool build_cache = false;
  uint32_t size_cache = 1000;     ///< max cached units
  uint32_t cache_buckets = 512;   ///< primary buckets of the hash relation
  CacheAdmission cache_admission = CacheAdmission::kEvictLru;

  // --- Clustering (paper §3.3). ---
  bool build_cluster = false;

  // --- Join index ([VALD86], cited in §2 for complex-object
  //     implementation techniques). ---
  /// Materialize the object -> subobject mapping as a dense binary
  /// relation (B-tree on (parent key, position)), so breadth-first
  /// strategies can collect a retrieve's OIDs without scanning the wide
  /// ParentRel tuples (StrategyKind::kBfsJoinIndex).
  bool build_join_index = false;

  // --- Procedural representation only (core/procedural.h). ---
  /// Build a secondary index on the predicate attribute so stored queries
  /// can run as index lookups instead of full scans (ProcStrategy::
  /// kExecIndexed).
  bool build_tag_index = false;

  // --- I/O scheduling (DESIGN.md §9). All default to the seed behaviour:
  //     no read-ahead, zero-latency device, temps never reclaimed. ---
  /// Enable buffer-pool read-ahead (vectored batch reads of exactly-known
  /// upcoming pages). With a zero-latency device every I/O count is
  /// bit-identical to prefetch off; with latency it overlaps and amortizes
  /// seeks.
  bool prefetch = false;
  /// Return the pages of consumed temporaries (BFS temps, sort runs) to
  /// the disk free list so long workloads have bounded footprint. Changes
  /// which dirty pages remain for end-of-run flushes, hence off for the
  /// paper experiments.
  bool reclaim_temp_pages = false;
  /// Simulated seek time per discontiguous read segment / per write
  /// (microseconds). 0 == pure counter, no sleeping.
  uint32_t io_latency_us = 0;
  /// Simulated per-page transfer time (microseconds).
  uint32_t io_transfer_us = 0;

  // --- Durability (DESIGN.md §10). ---
  /// Attach a page-level write-ahead commit log to the buffer pool and run
  /// every multi-page mutation (update queries, cache unit installs and
  /// invalidations, temp-file reclaim) as a redo-logged transaction, so a
  /// crash at any registered fault point is recoverable. Off for the paper
  /// experiments: logging adds no simulated I/O, but the txn latches
  /// serialize mutators, which is not part of the paper's cost model.
  bool enable_wal = false;

  // --- MVCC snapshot isolation (DESIGN.md §15). ---
  /// Attach a version store so concurrent retrieves read a consistent
  /// snapshot at their begin timestamp without table S locks, and updates
  /// install versions (first-committer-wins on overlapping targets)
  /// instead of writing base pages in place. Base pages stay frozen until
  /// a quiescent fold applies the newest versions. With enable_wal the
  /// commit point is a logical kMvccUpdate WAL record; without it MVCC is
  /// memory-only. Off for the paper experiments.
  bool enable_mvcc = false;

  uint64_t seed = 42;

  // --- Derived quantities (paper eqn. (1) and following). ---
  uint32_t share_factor() const { return use_factor * overlap_factor; }
  /// |ChildRel| summed over all child relations.
  uint32_t num_children_total() const {
    return num_parents * size_unit / share_factor();
  }
  /// NumUnits = |ParentRel| / UseFactor.
  uint32_t num_units() const { return num_parents / use_factor; }

  Status Validate() const {
    if (num_parents == 0 || size_unit == 0 || use_factor == 0 ||
        overlap_factor == 0 || num_child_rels == 0) {
      return Status::InvalidArgument("spec parameters must be positive");
    }
    if (num_parents % use_factor != 0) {
      return Status::InvalidArgument("use_factor must divide num_parents");
    }
    if (num_children_total() % num_child_rels != 0) {
      return Status::InvalidArgument(
          "num_child_rels must divide |ChildRel|");
    }
    if (overlap_factor == 1 &&
        num_units() * size_unit != num_children_total() * 1u) {
      // With disjoint units the partition must be exact (it always is,
      // algebraically, when the divisibility constraints above hold).
      return Status::InvalidArgument("unit partition is not exact");
    }
    if (num_units() % num_child_rels != 0) {
      return Status::InvalidArgument("num_child_rels must divide NumUnits");
    }
    if (size_unit > 4095) {
      return Status::InvalidArgument("size_unit exceeds cluster seq field");
    }
    return Status::OK();
  }
};

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_SPEC_H_
