// Analytic cost model for the joining strategies.
//
// The paper observes (§3.1) that "the optimal joining strategy in this
// query depends on the sizes of the relations involved": a real system
// needs an optimizer-style estimate to pick a strategy per query rather
// than a fixed NumTop threshold. This module provides closed-form
// estimates of the average retrieve I/O from the database shape —
// using the classic Cardenas/Yao expected-distinct-pages approximation for
// probe and merge-join footprints and a residency factor for the buffer —
// plus a ChooseStrategy() advisor built on them.
//
// DFS and BFS are estimated from the static shape alone. The dynamic-state
// strategies — DFSCACHE, DFSCLUST, SMART — additionally depend on runtime
// state (cache contents, I-lock invalidation pressure, clustering
// assignment); their estimates take a DynamicStats describing that state,
// defaulting to the steady-state forecast derivable from the shape. The
// estimates decompose into sequential reads / random reads / writes
// (IoEstimate) so a DeviceModel can weigh them into device time; with the
// default zero-latency device every component costs 1 and the weighted cost
// is exactly the page count, the paper's yardstick.
//
// The adaptive engine (core/adaptive.h) closes the loop: it predicts with
// this model, observes the actual per-query I/O, and calibrates the
// residual per strategy (DESIGN.md §12).
#ifndef OBJREP_CORE_COST_MODEL_H_
#define OBJREP_CORE_COST_MODEL_H_

#include "core/strategy.h"
#include "objstore/database.h"

namespace objrep {

/// Static shape of a database, extracted once (no I/O is charged).
struct DbShape {
  uint32_t parent_entries = 0;
  uint32_t parent_leaf_pages = 0;
  uint32_t num_child_rels = 0;
  uint32_t child_entries_per_rel = 0;  ///< mean across child relations
  uint32_t child_leaf_pages_per_rel = 0;  ///< mean across child relations
  uint32_t size_unit = 0;
  uint32_t buffer_pages = 0;

  // Sharing structure (paper eqn. (1)) — the steady-state forecasts for
  // the dynamic-state strategies derive from these.
  uint32_t use_factor = 1;
  uint32_t overlap_factor = 1;

  // Optional structures; 0 when absent.
  uint32_t cache_capacity = 0;       ///< spec.size_cache when the cache is built
  uint32_t cluster_entries = 0;      ///< |ClusterRel| when clustering is built
  uint32_t cluster_leaf_pages = 0;

  static DbShape Of(const ComplexDatabase& db);

  double share_factor() const {
    return static_cast<double>(use_factor) * overlap_factor;
  }
  double num_units() const {
    return use_factor == 0
               ? parent_entries
               : static_cast<double>(parent_entries) / use_factor;
  }
};

/// Runtime state the dynamic strategies depend on. The defaults mean "no
/// observation yet": forecasts fall back to the steady state implied by the
/// shape (cache hit rate from capacity vs NumUnits, remote fraction from
/// ShareFactor). The adaptive engine fills these from observed
/// CacheManager::CacheStats deltas.
struct DynamicStats {
  double cache_hit_rate = 0;           ///< observed recent hit rate [0,1]
  double cache_occupancy = 0;          ///< cached units / capacity [0,1]
  double invalidations_per_query = 0;  ///< I-lock invalidations per query
  /// Units touched by updates per retrieve-to-retrieve window (whether or
  /// not they were cached at the time). Successful invalidations alone
  /// cannot gauge churn: an empty cache shows zero invalidations no
  /// matter how hostile the update stream, so the forecast would keep
  /// promising a warm-up the updates will never allow.
  double update_unit_touches = 0;
  /// Fraction of subobject picks whose unit is clustered under a different
  /// owner (fetched via the ISAM index); < 0 = derive 1 - 1/ShareFactor.
  double cluster_remote_frac = -1.0;
  /// Steady-state estimates (the default) floor the cache hit rate by the
  /// capacity-implied rate the strategy would reach if adopted — cache
  /// warmth is an investment, and ranking plans by their cold cost would
  /// condemn DFSCACHE forever. Set false to estimate at the *observed*
  /// state instead: that is the reference the adaptive engine calibrates
  /// against, so the learned factor captures model residual rather than
  /// transient coldness (core/adaptive.cc).
  bool steady_state = true;
};

/// An estimate decomposed by access pattern, so device models with
/// different seek/transfer ratios can weigh it. pages() is the flat count
/// — the paper's metric.
struct IoEstimate {
  double seq_reads = 0;
  double rand_reads = 0;
  double writes = 0;

  double pages() const { return seq_reads + rand_reads + writes; }
  IoEstimate& operator+=(const IoEstimate& rhs) {
    seq_reads += rhs.seq_reads;
    rand_reads += rhs.rand_reads;
    writes += rhs.writes;
    return *this;
  }
};

/// Per-access-pattern cost weights of a (simulated) device. The default is
/// the pure counting model: every page costs 1, so Cost() == pages().
struct DeviceModel {
  double seq_read_cost = 1.0;
  double rand_read_cost = 1.0;
  double write_cost = 1.0;

  /// Weights implied by the simulated device knobs (DESIGN.md §9): a
  /// discontiguous I/O pays seek + transfer, a sequential read only the
  /// transfer. Zero/zero is the seed's pure counter — all weights 1. The
  /// transfer term is floored at 1us so no access pattern is ever free.
  static DeviceModel ForDevice(uint32_t io_latency_us, uint32_t transfer_us);

  double Cost(const IoEstimate& e) const {
    return e.seq_reads * seq_read_cost + e.rand_reads * rand_read_cost +
           e.writes * write_cost;
  }
};

/// Cardenas' approximation: expected number of distinct pages touched when
/// `picks` uniform random picks land on `pages` pages.
double ExpectedDistinctPages(double pages, double picks);

/// True when the model produces an estimate for `kind` (DFS, BFS,
/// BFSNODUP, DFSCACHE, DFSCLUST, SMART). The remaining strategies
/// (DFSCLUST+CACHE, BFS-JI, BFS-HASH) are unmodelled.
bool CostModelCovers(StrategyKind kind);

/// Decomposed estimate of one NumTop-object retrieve under `kind`.
/// Returns a zero estimate for strategies CostModelCovers() rejects.
/// `smart_threshold` is SMART's DFSCACHE/BFS switch point (paper §5.3).
IoEstimate EstimateRetrieveDetail(StrategyKind kind, const DbShape& shape,
                                  const DynamicStats& dyn, uint32_t num_top,
                                  uint32_t smart_threshold = 300);

/// Estimated average page I/O of one NumTop-object retrieve (flat count,
/// steady-state dynamics). -1 for strategies the model does not cover.
double EstimateRetrieveIo(StrategyKind kind, const DbShape& shape,
                          uint32_t num_top);

/// Advisor: the cheaper of DFS and BFS for this query size, per the model.
/// Ties break to BFS, consistently with PredictDfsBfsCrossover(): the
/// crossover is the first NumTop at which BFS is at least as cheap.
StrategyKind ChooseStrategy(const DbShape& shape, uint32_t num_top);

/// Model-predicted NumTop at which BFS overtakes DFS (binary search over
/// the estimates); 0 if BFS never wins within |ParentRel|.
uint32_t PredictDfsBfsCrossover(const DbShape& shape);

}  // namespace objrep

#endif  // OBJREP_CORE_COST_MODEL_H_
