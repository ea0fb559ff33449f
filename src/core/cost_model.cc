#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "access/isam.h"
#include "relational/temp_file.h"
#include "storage/page.h"

namespace objrep {

namespace {

// Fraction of the buffer realistically available for one relation's hot
// leaf pages (the rest holds internal nodes, the parent scan, temps).
constexpr double kBufferShare = 0.8;

/// Steady-state probability that a random leaf probe of a relation with
/// `leaf_pages` leaves hits the buffer.
double LeafResidency(double leaf_pages, double buffer_pages) {
  if (leaf_pages <= 0) return 1.0;
  return std::min(1.0, kBufferShare * buffer_pages / leaf_pages);
}

/// Random-probe footprint of `picks` uniform picks against a relation with
/// `leaf_pages` leaves: distinct leaves touched, discounted by buffer
/// residency, floored by the per-pick miss cost at tiny pick counts (each
/// pick is a separate descent there and the distinct approximation
/// underestimates).
double ProbeCost(double leaf_pages, double picks, double residency,
                 double fanout_rels) {
  if (picks <= 0 || leaf_pages <= 0) return 0;
  double per_rel = picks / fanout_rels;
  double distinct = ExpectedDistinctPages(leaf_pages, per_rel);
  double cost = fanout_rels * distinct * (1.0 - residency * 0.9);
  return std::max(cost, picks * (1.0 - residency) * 0.8);
}

/// Forecast cache hit rate: the observed recent rate when the cache is
/// warm, floored by the steady-state rate implied by capacity vs NumUnits
/// so a cold cache does not condemn DFSCACHE forever (the optimism that
/// lets the adaptive engine warm it). Invalidation pressure damps the
/// steady state: every I-lock invalidation forces a re-materialization of
/// a unit a NumTop-object retrieve would otherwise have found cached.
double CacheHitForecast(const DbShape& shape, const DynamicStats& dyn,
                        uint32_t num_top) {
  if (shape.cache_capacity == 0 || !dyn.steady_state) {
    return std::clamp(dyn.cache_hit_rate, 0.0, 1.0);
  }
  double p_cached =
      std::min(1.0, shape.cache_capacity / std::max(1.0, shape.num_units()));
  double damp =
      1.0 + dyn.invalidations_per_query / std::max(1u, num_top);
  // Churn-limited equilibrium: per retrieve window the retrieve installs
  // (references) NumTop units while updates touch update_unit_touches
  // units, evicting any that were cached. A unit is cached iff its last
  // reference beat its last update, so the steady-state cached fraction
  // cannot exceed NumTop / (NumTop + touches) regardless of capacity —
  // at a 95%-update mix this is what keeps the forecast from promising a
  // warm cache the update stream will never allow.
  double churn_cap =
      dyn.update_unit_touches > 0
          ? num_top / (num_top + dyn.update_unit_touches)
          : 1.0;
  double hit_ss = std::min(p_cached, churn_cap) / damp;
  // Occupancy-scaled projection: under LRU with a stationary access skew
  // the hit rate grows roughly linearly with occupancy, so the rate a
  // partially-filled cache shows understates what full adoption would
  // reach. Project to the achievable steady occupancy (bounded by how
  // many units exist); the projection converges onto the observed rate
  // as occupancy approaches steady state, so transient over-optimism
  // self-corrects. Below 5% occupancy the ratio is noise — the capacity
  // floor carries the forecast there.
  double occ_ss = std::min(
      1.0, shape.num_units() / std::max(1.0, double(shape.cache_capacity)));
  double projected =
      dyn.cache_occupancy > 0.05
          ? dyn.cache_hit_rate * occ_ss / dyn.cache_occupancy / damp
          : 0.0;
  projected = std::min(projected, churn_cap / damp);
  return std::clamp(std::max({dyn.cache_hit_rate, hit_ss, projected}), 0.0,
                    1.0);
}

}  // namespace

DbShape DbShape::Of(const ComplexDatabase& db) {
  DbShape s;
  s.parent_entries =
      static_cast<uint32_t>(db.parent_rel->tree().stats().num_entries);
  s.parent_leaf_pages = db.parent_rel->tree().stats().leaf_pages;
  s.num_child_rels = static_cast<uint32_t>(db.child_rels.size());
  if (s.num_child_rels > 0) {
    // Mean across the child relations (round to nearest): heterogeneous
    // fanouts would bias any single relation's stats.
    uint64_t entries = 0;
    uint64_t leaves = 0;
    for (const Table* t : db.child_rels) {
      entries += t->tree().stats().num_entries;
      leaves += t->tree().stats().leaf_pages;
    }
    const uint64_t n = s.num_child_rels;
    s.child_entries_per_rel = static_cast<uint32_t>((entries + n / 2) / n);
    s.child_leaf_pages_per_rel = static_cast<uint32_t>((leaves + n / 2) / n);
  }
  s.size_unit = db.spec.size_unit;
  s.buffer_pages = db.spec.buffer_pages;
  s.use_factor = db.spec.use_factor;
  s.overlap_factor = db.spec.overlap_factor;
  if (db.cache != nullptr) s.cache_capacity = db.spec.size_cache;
  if (db.cluster_rel != nullptr) {
    s.cluster_entries =
        static_cast<uint32_t>(db.cluster_rel->tree().stats().num_entries);
    s.cluster_leaf_pages = db.cluster_rel->tree().stats().leaf_pages;
  }
  return s;
}

double ExpectedDistinctPages(double pages, double picks) {
  if (pages <= 0 || picks <= 0) return 0;
  // pages * (1 - (1 - 1/pages)^picks), numerically via expm1/log1p.
  return pages * -std::expm1(picks * std::log1p(-1.0 / pages));
}

DeviceModel DeviceModel::ForDevice(uint32_t io_latency_us,
                                   uint32_t transfer_us) {
  DeviceModel m;
  if (io_latency_us == 0 && transfer_us == 0) return m;  // pure counter
  double t = transfer_us > 0 ? transfer_us : 1.0;
  m.seq_read_cost = t;
  m.rand_read_cost = io_latency_us + t;
  m.write_cost = io_latency_us + t;
  return m;
}

bool CostModelCovers(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kDfs:
    case StrategyKind::kBfs:
    case StrategyKind::kBfsNoDup:
    case StrategyKind::kDfsCache:
    case StrategyKind::kDfsClust:
    case StrategyKind::kSmart:
      return true;
    default:
      return false;
  }
}

IoEstimate EstimateRetrieveDetail(StrategyKind kind, const DbShape& shape,
                                  const DynamicStats& dyn, uint32_t num_top,
                                  uint32_t smart_threshold) {
  IoEstimate e;
  const double parents_per_page =
      static_cast<double>(shape.parent_entries) /
      std::max(1u, shape.parent_leaf_pages);
  // Contiguous scan of the qualifying objects (every strategy but
  // DFSCLUST pays it; DFSCLUST scans ClusterRel instead).
  const double par_cost = num_top / parents_per_page + 1.0;

  const double total_picks = static_cast<double>(num_top) * shape.size_unit;
  // A value-representation database has no child relations: the retrieve
  // is the parent scan alone, and every child term below must vanish
  // instead of dividing by zero (the NaN regression).
  const bool childless = shape.num_child_rels == 0;
  const double ncr = std::max(1u, shape.num_child_rels);
  const double picks_per_rel = total_picks / ncr;
  const double leaf_pages = shape.child_leaf_pages_per_rel;
  const double residency = LeafResidency(leaf_pages, shape.buffer_pages);

  // Cache terms shared by DFSCACHE and SMART: each hit unit is one random
  // hash-file fetch; each miss materializes the unit and installs it (one
  // bucket read-modify-write, the write deferred but billed here — it
  // surfaces as eviction write-back in steady state).
  const double hit = CacheHitForecast(shape, dyn, num_top);

  switch (kind) {
    case StrategyKind::kDfs: {
      e.seq_reads = par_cost;
      if (childless) return e;
      e.rand_reads = ProbeCost(leaf_pages, total_picks, residency, ncr);
      return e;
    }
    case StrategyKind::kBfs:
    case StrategyKind::kBfsNoDup: {
      e.seq_reads = par_cost;
      if (childless) return e;
      // Temp formation + external sort: with the default work-mem a
      // sequence is one sorted run (write + read) plus the input pages
      // (write + read).
      const double temp_pages =
          std::ceil(total_picks / TempFile::kEntriesPerPage);
      e.writes += 2.0 * temp_pages;
      e.seq_reads += 2.0 * temp_pages + shape.num_child_rels;
      // Merge join: distinct child leaves touched, read once each
      // (minus whatever the buffer retains).
      double distinct_keys =
          kind == StrategyKind::kBfsNoDup
              ? ExpectedDistinctPages(shape.child_entries_per_rel,
                                      picks_per_rel)
              : picks_per_rel;
      double join_leaves = ExpectedDistinctPages(leaf_pages, distinct_keys);
      e.rand_reads += ncr * join_leaves * (1.0 - residency * 0.9);
      return e;
    }
    case StrategyKind::kDfsCache: {
      e.seq_reads = par_cost;
      if (childless) return e;
      e.rand_reads += hit * num_top;  // hash-file fetch per cached unit
      e.rand_reads += ProbeCost(leaf_pages, (1.0 - hit) * total_picks,
                                residency, ncr);
      // Maintenance per missed unit: bucket read + deferred install write.
      e.rand_reads += (1.0 - hit) * num_top;
      e.writes += (1.0 - hit) * num_top;
      return e;
    }
    case StrategyKind::kDfsClust: {
      if (shape.cluster_leaf_pages == 0) {
        // No clustered representation: behaves like DFS over ChildRel.
        return EstimateRetrieveDetail(StrategyKind::kDfs, shape, dyn,
                                      num_top, smart_threshold);
      }
      // Contiguous ClusterRel extent covering the qualifying parents and
      // their locally clustered subobjects — the ParCost inflation of
      // Figure 5(a).
      e.seq_reads = shape.cluster_leaf_pages *
                        (static_cast<double>(num_top) /
                         std::max(1u, shape.parent_entries)) +
                    1.0;
      // Subobjects clustered under another owner: ISAM descent plus a
      // random ClusterRel access each.
      double remote_frac = dyn.cluster_remote_frac >= 0
                               ? dyn.cluster_remote_frac
                               : 1.0 - 1.0 / std::max(1.0, shape.share_factor());
      double remote = total_picks * std::clamp(remote_frac, 0.0, 1.0);
      if (remote > 0) {
        double cl_residency =
            LeafResidency(shape.cluster_leaf_pages, shape.buffer_pages);
        e.rand_reads += ProbeCost(shape.cluster_leaf_pages, remote,
                                  cl_residency, 1.0);
        double isam_pages = shape.cluster_entries *
                            static_cast<double>(IsamIndex::kEntryBytes) /
                            kPageSize;
        double isam_residency = LeafResidency(isam_pages, shape.buffer_pages);
        e.rand_reads += ExpectedDistinctPages(isam_pages, remote) *
                        (1.0 - isam_residency * 0.9);
      }
      return e;
    }
    case StrategyKind::kSmart: {
      if (num_top <= smart_threshold) {
        return EstimateRetrieveDetail(StrategyKind::kDfsCache, shape, dyn,
                                      num_top, smart_threshold);
      }
      // Cache-aware BFS (paper §5.3): cached units answer from the hash
      // file, the uncached remainder goes through temp + sort + merge
      // join; the cache is not maintained on this path.
      e.seq_reads = par_cost;
      if (childless) return e;
      e.rand_reads += hit * num_top;
      const double miss_picks = (1.0 - hit) * total_picks;
      const double temp_pages =
          std::ceil(miss_picks / TempFile::kEntriesPerPage);
      e.writes += 2.0 * temp_pages;
      e.seq_reads += 2.0 * temp_pages + shape.num_child_rels;
      double join_leaves =
          ExpectedDistinctPages(leaf_pages, miss_picks / ncr);
      e.rand_reads += ncr * join_leaves * (1.0 - residency * 0.9);
      return e;
    }
    default:
      return e;  // unmodelled: zero estimate (see CostModelCovers)
  }
}

double EstimateRetrieveIo(StrategyKind kind, const DbShape& shape,
                          uint32_t num_top) {
  if (!CostModelCovers(kind)) return -1.0;
  return EstimateRetrieveDetail(kind, shape, DynamicStats{}, num_top).pages();
}

StrategyKind ChooseStrategy(const DbShape& shape, uint32_t num_top) {
  double dfs = EstimateRetrieveIo(StrategyKind::kDfs, shape, num_top);
  double bfs = EstimateRetrieveIo(StrategyKind::kBfs, shape, num_top);
  // Ties break to BFS so the crossover (first NumTop where BFS is at
  // least as cheap) is exact at an equal-estimate boundary.
  return dfs < bfs ? StrategyKind::kDfs : StrategyKind::kBfs;
}

uint32_t PredictDfsBfsCrossover(const DbShape& shape) {
  uint32_t lo = 1, hi = shape.parent_entries;
  if (ChooseStrategy(shape, hi) == StrategyKind::kDfs) return 0;
  if (ChooseStrategy(shape, lo) == StrategyKind::kBfs) return 1;
  while (lo + 1 < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (ChooseStrategy(shape, mid) == StrategyKind::kDfs) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace objrep
