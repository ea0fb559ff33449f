// Adaptive per-query strategy selection with feedback-calibrated costs
// (DESIGN.md §12).
//
// The paper's §3.1 observation — "the optimal joining strategy in this
// query depends on the sizes of the relations involved" — is implemented
// here as a working optimizer: before every retrieve the engine estimates
// each candidate strategy's cost with the analytic model (core/cost_model.h,
// fed with observed cache/cluster dynamics), weighs the estimate with a
// device model, corrects it with a per-strategy calibration factor learned
// from the actual I/O of earlier queries, and executes the argmin plan.
//
// Calibration closes the loop between model and measurement: after each
// retrieve the engine snapshots the calling thread's own physical I/O
// delta (obs/io_context.h), prices it with the *true* device weights, and
// folds observed/predicted into an exponentially-weighted factor for the
// executed strategy. The model may therefore start wrong — a bad shape
// estimate, a mis-seeded device model — and still converge to the right
// plan ordering within a few observations per candidate.
//
// Concurrency: every worker owns its own AdaptiveStrategy instance (the
// ConcurrentRunner already makes one strategy per worker), so calibration
// state is thread-confined and the observation feed is the per-thread I/O
// counters — no cross-worker races. The only shared touch points are the
// process-wide plan-choice metrics counters (atomic, registry pattern) and
// the CacheManager stats snapshot (mutex-guarded, advisory input only).
#ifndef OBJREP_CORE_ADAPTIVE_H_
#define OBJREP_CORE_ADAPTIVE_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "objstore/cache_manager.h"

namespace objrep {

class Counter;

/// Per-strategy EWMA calibration of the cost model's residual. Predictions
/// are raw model costs under the *predicted* device model; observations
/// are measured I/O priced under the true device. The ratio
/// observed/predicted converges each strategy's calibrated estimate onto
/// its measured cost, which is all the argmin needs — systematic model
/// error cancels out of the comparison.
class CostCalibrator {
 public:
  /// `window` is the query horizon over which an observation decays
  /// (EWMA alpha = 2 / (window + 1)).
  CostCalibrator(DeviceModel predicted, uint32_t window);

  /// Raw (uncalibrated) predicted cost of one retrieve under `kind`.
  double Predict(StrategyKind kind, const DbShape& shape,
                 const DynamicStats& dyn, uint32_t num_top,
                 uint32_t smart_threshold) const;

  /// Predict() corrected by the strategy's learned factor.
  double PredictCalibrated(StrategyKind kind, const DbShape& shape,
                           const DynamicStats& dyn, uint32_t num_top,
                           uint32_t smart_threshold) const;

  /// Folds one (prediction, observation) pair into `kind`'s factor. The
  /// first kSnapObservations snap the factor to the observed ratio — the
  /// earliest measurements land on a cold buffer pool and an EWMA would
  /// freeze that bias in. Later ones decay exponentially over the window,
  /// except during a trial (`trial` = true), which uses the faster
  /// kTrialAlpha so a short burst of consecutive runs can overturn a
  /// stale factor while weighting its own warmest (latest) measurements
  /// heaviest.
  void Observe(StrategyKind kind, double predicted_raw, double observed,
               bool trial = false);

  /// Observations that replace the factor outright instead of decaying.
  static constexpr uint32_t kSnapObservations = 3;
  /// EWMA weight of each observation made during an exploration trial.
  static constexpr double kTrialAlpha = 0.25;

  uint32_t observations(StrategyKind kind) const {
    return count_[Index(kind)];
  }
  double factor(StrategyKind kind) const { return factor_[Index(kind)]; }
  const DeviceModel& device() const { return device_; }
  uint32_t window() const { return window_; }

 private:
  static constexpr size_t kNumKinds = 16;  // indexed by StrategyKind value
  static size_t Index(StrategyKind kind) {
    return static_cast<size_t>(kind) % kNumKinds;
  }

  DeviceModel device_;
  uint32_t window_;
  double alpha_;
  double factor_[kNumKinds];
  uint32_t count_[kNumKinds] = {};
};

/// StrategyKind::kAdaptive: re-plans every retrieve across the candidate
/// strategies the database's structures support (DFS and BFS always;
/// DFSCACHE and SMART when the cache is built; DFSCLUST when clustering
/// is). Updates write through to every representation — ChildRel in place,
/// the ClusterRel translation, cache invalidation — so any plan the next
/// retrieve picks sees consistent data.
class AdaptiveStrategy : public Strategy {
 public:
  AdaptiveStrategy(ComplexDatabase* db, const StrategyOptions& options);
  /// Test seam: seed the calibrator with an explicit — possibly wrong —
  /// device model instead of the disk's actual knobs, to exercise
  /// calibration convergence.
  AdaptiveStrategy(ComplexDatabase* db, const StrategyOptions& options,
                   DeviceModel predicted_device);

  Status ExecuteRetrieve(const Query& q, RetrieveResult* out) override;
  Status ExecuteUpdate(const Query& q) override;

  /// Pins every retrieve to `kind` (must be a candidate; returns false
  /// and stays unpinned otherwise). The engine keeps observing and
  /// calibrating but never re-plans. This is the regret bench's oracle
  /// seam: each candidate runs pinned, so every entrant pays the
  /// identical multi-representation update path and the comparison
  /// isolates plan choice alone.
  bool PinPlan(StrategyKind kind);

  const std::vector<StrategyKind>& candidates() const { return candidates_; }
  StrategyKind last_choice() const { return last_choice_; }
  uint64_t plan_count(StrategyKind kind) const {
    return plan_counts_[static_cast<size_t>(kind) % kMaxKinds];
  }
  const CostCalibrator& calibrator() const { return calibrator_; }
  /// Dynamics the next plan choice would see (test / driver inspection).
  DynamicStats CurrentDynamics();

 private:
  static constexpr size_t kMaxKinds = 16;
  /// Exploration runs as *trials*: a candidate executes several
  /// consecutive retrieves, because the structures the dynamic strategies
  /// lean on are investments — the cache fills, the cluster's ISAM and
  /// extent pages become buffer-resident — and a single interleaved probe
  /// measures only the cold cost of a plan nobody is committed to. The
  /// trial length shrinks as NumTop grows (TrialLength below): one
  /// 10000-object retrieve touches enough pages to reach its steady state
  /// by itself, and long trials of a bad candidate there would be the
  /// regret budget.
  static constexpr uint32_t kTrialProbes = 600;
  static constexpr uint32_t kMaxTrialLength = 8;
  /// Steady-state re-trials, gated so they cannot blow the regret budget:
  /// a candidate is re-tried only when its uncalibrated steady-state
  /// forecast undercuts the current pick by the switch margin (the
  /// optimism gate — re-measurement can only change the decision if the
  /// model sees upside), it has not run for kExploreInterval retrieves,
  /// and it has trials left (kMaxTrials, refreshed below).
  static constexpr uint32_t kExploreInterval = 64;
  static constexpr uint32_t kMaxTrials = 3;
  /// Lifetime trial budget for the ordering-dispute arm of the gate (the
  /// initial trial plus one re-measurement). Deliberately not refreshed:
  /// where the model's relative ranking disagrees with the calibrated
  /// ranking *correctly* (real factor gaps), re-trialing forever would be
  /// steady regret.
  static constexpr uint32_t kOrderingTrials = 2;
  /// Every kTrialRefresh retrieves each candidate regains one trial (up
  /// to the kMaxTrials cap). The early phase is turbulent — candidates
  /// trial back to back, each evicting the previous one's hot pages, so
  /// budgets burned there may all be cold-biased; the refresh lets a
  /// stale near-best plan be rediscovered later at a bounded long-run
  /// rate (one trial per candidate per kTrialRefresh retrieves).
  static constexpr uint32_t kTrialRefresh = 256;
  /// A challenger must beat the incumbent's calibrated cost by this
  /// margin to take over — flapping damper for near-ties.
  static constexpr double kSwitchMargin = 0.10;

  /// Trials of a tiny retrieve run longer: at NumTop of a handful each
  /// query touches only a couple of pages, so the plan's working set
  /// (child leaf pages, index leaves) takes tens of queries to become
  /// buffer-resident — an 8-query trial ends while still cold and learns
  /// a factor 2-3x the adopted steady-state cost. The extra queries are
  /// cheap at that size (a few pages each).
  static constexpr uint32_t kTinyTopTrialLength = 24;

  static uint32_t TrialLength(uint32_t num_top) {
    if (num_top <= 4) return kTinyTopTrialLength;
    uint32_t by_probes = kTrialProbes / num_top;
    return std::clamp(by_probes, 1u, kMaxTrialLength);
  }

  /// Picks the next plan: continues an active trial, starts the initial
  /// trial of a never-observed candidate, or takes the calibrated argmin
  /// (possibly diverting into a gated re-trial of a stale near-best
  /// candidate). Sets *in_trial accordingly.
  StrategyKind ChoosePlan(const DynamicStats& dyn, uint32_t num_top,
                          bool* in_trial);
  void StartTrial(StrategyKind kind, uint32_t num_top);

  StrategyOptions options_;
  DbShape shape_;
  CostCalibrator calibrator_;
  DeviceModel observed_device_;
  std::vector<StrategyKind> candidates_;
  std::unique_ptr<Strategy> execs_[kMaxKinds];
  uint64_t plan_counts_[kMaxKinds] = {};
  Counter* plan_metric_[kMaxKinds] = {};
  StrategyKind last_choice_ = StrategyKind::kDfs;
  /// Retrieve sequence number and per-candidate last-run stamp, feeding
  /// the staleness gate above.
  uint64_t retrieve_seq_ = 0;
  uint64_t last_run_[kMaxKinds] = {};
  // Active-trial state and per-candidate lifetime trial counts.
  StrategyKind trial_kind_ = StrategyKind::kDfs;
  uint32_t trial_remaining_ = 0;
  uint32_t trials_started_[kMaxKinds] = {};
  bool pinned_ = false;
  StrategyKind pinned_kind_ = StrategyKind::kDfs;

  // Cache-dynamics tracking (EWMA over per-call deltas of the shared
  // CacheManager stats; re-baselined when an external ResetStats — e.g.
  // RunWorkload's window reset — makes a snapshot go backwards).
  CacheManager::CacheStats last_cache_;
  double hit_ewma_ = -1.0;
  double inval_ewma_ = 0.0;
  uint64_t queries_since_dyn_ = 0;
  // Update-churn signal for the cache forecast (DynamicStats
  // ::update_unit_touches): units touched by updates since the last
  // retrieve, and its EWMA across retrieve windows.
  double touches_accum_ = 0.0;
  double touches_ewma_ = -1.0;
};

}  // namespace objrep

#endif  // OBJREP_CORE_ADAPTIVE_H_
