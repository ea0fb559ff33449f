// Query-processing strategies over the OID representation (paper §3, Fig 2).
//
//   DFS       — per-object nested-loop probing of subobjects
//   BFS       — temp of OIDs, sort, merge join (the competitive form)
//   BFSNODUP  — BFS with duplicate elimination before the join
//   DFSCACHE  — DFS against the outside cache, with cache maintenance
//   DFSCLUST  — depth-first over the clustered relation
//   SMART     — DFSCACHE below a NumTop threshold, cache-aware BFS above,
//               never maintaining the cache on the BFS path (paper §5.3)
//
// A strategy executes both query kinds of the workload: retrieves produce
// the projected attribute values of the selected objects' subobjects (in
// reference order for depth-first strategies), updates modify ChildRel
// tuples in place — translated to ClusterRel under clustering, and
// invalidating I-locked units under caching.
#ifndef OBJREP_CORE_STRATEGY_H_
#define OBJREP_CORE_STRATEGY_H_

#include <memory>
#include <vector>

#include "core/cost.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "util/status.h"

namespace objrep {

/// Output of one retrieve. `oids[i]` names the subobject that produced
/// `values[i]` — the two vectors are always parallel. The scatter-gather
/// layer (src/shard/) depends on this: BFS-family per-shard streams are
/// merged by packed OID, and BFSNODUP dedups across shards by OID.
struct RetrieveResult {
  std::vector<int32_t> values;
  std::vector<Oid> oids;
  CostBreakdown cost;
};

class Strategy {
 public:
  explicit Strategy(ComplexDatabase* db) : db_(db) {}
  virtual ~Strategy() = default;

  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  virtual Status ExecuteRetrieve(const Query& q, RetrieveResult* out) = 0;

  /// Default: in-place ChildRel update (paper §4 [1]). Overridden by
  /// clustering (translate to ClusterRel) and caching (invalidate).
  virtual Status ExecuteUpdate(const Query& q);

 protected:
  /// Applies one in-place ret1 modification to the base ChildRel copy.
  Status UpdateChildInPlace(const Oid& oid, int32_t new_ret1);

  ComplexDatabase* db_;
};

/// Which strategy to instantiate. kDfsClustCache combines clustering with
/// caching — the representation matrix box the paper *shades out* (§3.4:
/// "it does not make sense to combine the two"); it exists here so that
/// claim can be verified experimentally (bench/ablation_clustcache).
enum class StrategyKind {
  kDfs,
  kBfs,
  kBfsNoDup,
  kDfsCache,
  kDfsClust,
  kSmart,
  kDfsClustCache,
  /// BFS whose OID-collection phase scans the dense join index ([VALD86])
  /// instead of the wide ParentRel tuples. Requires spec.build_join_index.
  kBfsJoinIndex,
  /// BFS with a hash join instead of sort + merge join (extension; INGRES
  /// 5 had no hash join): the temporary is loaded into an in-memory hash
  /// table and ChildRel is scanned sequentially once. No sort cost, but
  /// the probe side reads *every* leaf — the classic trade against the
  /// merge join, which §3.1's "optimal joining strategy depends on the
  /// sizes" reasoning extends to naturally.
  kBfsHash,
  /// Re-plans every retrieve: estimates each supported strategy with the
  /// analytic cost model fed by observed cache/cluster dynamics, corrects
  /// the estimates with feedback calibration from measured per-query I/O,
  /// and executes the argmin plan (core/adaptive.h, DESIGN.md §12).
  kAdaptive,
};

struct StrategyOptions {
  /// SMART's NumTop threshold N (paper §5.3: N = 300).
  uint32_t smart_threshold = 300;
  /// ADAPTIVE's calibration horizon: queries over which an I/O
  /// observation decays (EWMA alpha = 2 / (window + 1)). Long enough that
  /// one noisy per-query measurement (a lucky buffer-hit streak, an
  /// unlucky miss) cannot reorder the plans by itself; exploration trials
  /// converge faster than this (CostCalibrator::kTrialAlpha).
  uint32_t calibration_window = 32;
};

/// Factory. Fails if `db` lacks a structure the strategy requires
/// (ClusterRel for DFSCLUST, the Cache for DFSCACHE/SMART).
Status MakeStrategy(StrategyKind kind, ComplexDatabase* db,
                    const StrategyOptions& options,
                    std::unique_ptr<Strategy>* out);

/// `spec` marked to build every structure that `kinds` require — the one
/// rule behind MakeStrategy's structure checks: the Cache for DFSCACHE,
/// SMART and DFSCLUST+CACHE, ClusterRel for DFSCLUST and DFSCLUST+CACHE,
/// the join index for BFS-JI.
DatabaseSpec WithStructuresFor(DatabaseSpec spec,
                               const std::vector<StrategyKind>& kinds);

const char* StrategyKindName(StrategyKind kind);

}  // namespace objrep

#endif  // OBJREP_CORE_STRATEGY_H_
