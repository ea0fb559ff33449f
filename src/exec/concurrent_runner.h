// Multi-client workload runner: one shared ComplexDatabase, K worker
// sessions, table-level 2PL, race-free result aggregation.
//
// The paper measures a single query stream; this engine is the step the
// ROADMAP asks for — retrieves and updates racing against one database,
// which is what actually stresses DFSCACHE's I-lock invalidation (§3.3)
// and the update/retrieve mix of Figure 7. The yardstick grows from
// average I/O per query to throughput (queries/sec) and latency
// percentiles, while the aggregate I/O bill stays comparable to the
// sequential runner's.
//
// Determinism: the query stream is partitioned round-robin (query i goes
// to worker i mod K), each worker executes its slice in order, and each
// worker owns a deterministic Rng stream (Rng::ForStream). For a
// read-only stream the aggregated result_count/result_sum are therefore
// identical for every K — asserted per strategy by
// tests/concurrent_runner_test.cc. With updates in the mix the *set* of
// retrieved subobjects (result_count) is still invariant — updates modify
// values in place, never structure — but result_sum depends on the
// interleaving, as it would on any real server.
#ifndef OBJREP_EXEC_CONCURRENT_RUNNER_H_
#define OBJREP_EXEC_CONCURRENT_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/runner.h"
#include "core/strategy.h"
#include "objstore/workload.h"
#include "util/status.h"

namespace objrep {

/// Latency distribution over one run, microseconds.
struct LatencySummary {
  uint64_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
};

/// Sorts `samples_us` in place and summarizes it. Percentiles use the
/// nearest-rank method (the ceil(p*n)-th smallest sample), the one
/// percentile definition every bench and load tool reports; an empty
/// sample set yields all zeros.
LatencySummary SummarizeLatencies(std::vector<double>* samples_us);

struct ConcurrentRunOptions {
  uint32_t num_threads = 1;
  /// 0 = one pass over the stream (result-deterministic). > 0 = each
  /// worker re-draws queries from its slice (via its Rng stream) until the
  /// deadline — the throughput-measurement mode.
  double duration_seconds = 0;
  /// Base seed for the per-worker Rng streams (duration mode only).
  uint64_t seed = 1;
};

struct ConcurrentRunResult {
  uint32_t num_threads = 1;

  /// Aggregated counters across workers. Per-query I/O attribution
  /// (retrieve_io/update_io/retrieve_cost) is meaningless when streams
  /// interleave on shared counters, so those fields stay zero; total_io
  /// and flush_io are exact for the whole run.
  RunResult combined;

  double wall_seconds = 0;       ///< worker phase only (excludes flush)
  double queries_per_sec = 0;
  double avg_io_per_query = 0;   ///< total_io / num_queries, the paper axis

  LatencySummary latency;           ///< all queries
  LatencySummary retrieve_latency;  ///< retrieves only
};

/// Runs `queries` under `kind` with `options.num_threads` worker sessions
/// sharing `db`. Each worker gets its own Strategy instance and executes
/// through exec/executor.h under one shared LockManager (table-level 2PL;
/// snapshot isolation instead when `db` has MVCC). Ends with FinishRun,
/// charged to combined.total_io, exactly like the sequential RunWorkload.
Status RunConcurrentWorkload(StrategyKind kind,
                             const StrategyOptions& strategy_options,
                             ComplexDatabase* db,
                             const std::vector<Query>& queries,
                             const ConcurrentRunOptions& options,
                             ConcurrentRunResult* out);

}  // namespace objrep

#endif  // OBJREP_EXEC_CONCURRENT_RUNNER_H_
