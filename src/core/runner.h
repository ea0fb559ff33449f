// Experiment runner: executes a query sequence under one strategy and
// reports average I/O — the paper's performance yardstick ("run a sequence
// of queries on the database and note the average I/O traffic", §4 [3]).
//
// Each query runs through the one execution path (exec/executor.h) with no
// table locks, so a WAL-backed update is one transaction and an MVCC
// database commits through its version store. The concurrent runner and
// the served path execute queries through the same calls.
#ifndef OBJREP_CORE_RUNNER_H_
#define OBJREP_CORE_RUNNER_H_

#include <vector>

#include "core/strategy.h"
#include "obs/io_context.h"
#include "objstore/cache_manager.h"
#include "objstore/workload.h"
#include "storage/io_stats.h"
#include "util/status.h"

namespace objrep {

struct RunResult {
  uint32_t num_queries = 0;
  uint32_t num_retrieves = 0;
  uint32_t num_updates = 0;

  uint64_t total_io = 0;     ///< includes the end-of-run flush
  uint64_t retrieve_io = 0;
  uint64_t update_io = 0;
  uint64_t flush_io = 0;     ///< end-of-run MVCC fold + flush

  /// Raw counter delta over the whole run (queries + flush). io.total()
  /// == total_io; the seq/rand split feeds the driver's seq% column.
  IoCounters io;

  /// Per-component attribution of the same window (DESIGN.md §11).
  /// io_by_tag.total() == io.total() always: DiskManager bumps the tag
  /// slot and the raw counter at the same sites by the same amounts.
  IoTagBreakdown io_by_tag;

  CostBreakdown retrieve_cost;  ///< summed over retrieves

  /// Result integrity: count and sum of projected values (strategy
  /// equivalence is asserted on these by the tests).
  uint64_t result_count = 0;
  int64_t result_sum = 0;

  CacheManager::CacheStats cache_stats;  ///< zero when no cache

  double AvgIoPerQuery() const {
    return num_queries == 0 ? 0.0
                            : static_cast<double>(total_io) / num_queries;
  }
  double AvgRetrieveIo() const {
    return num_retrieves == 0
               ? 0.0
               : static_cast<double>(retrieve_io) / num_retrieves;
  }
  double AvgUpdateIo() const {
    return num_updates == 0 ? 0.0
                            : static_cast<double>(update_io) / num_updates;
  }
  double AvgParCost() const {
    return num_retrieves == 0
               ? 0.0
               : static_cast<double>(retrieve_cost.par_io) / num_retrieves;
  }
  double AvgChildCost() const {
    return num_retrieves == 0 ? 0.0
                              : static_cast<double>(
                                    retrieve_cost.child_cost()) /
                                    num_retrieves;
  }
};

/// Runs `queries` under `strategy` against the strategy's database.
/// Resets the database cache statistics at the start; ends with FinishRun,
/// whose I/O is charged to total_io.
Status RunWorkload(Strategy* strategy, ComplexDatabase* db,
                   const std::vector<Query>& queries, RunResult* out);

/// Closes a run's measurement window, opened at (run_start, tags_start),
/// at a quiescent point: folds committed MVCC versions onto base pages and
/// flushes deferred dirty pages (updates, cache inserts, temps), which are
/// part of the run's I/O bill. Fills flush_io, io, io_by_tag and
/// cache_stats; the caller sums total_io.
Status FinishRun(ComplexDatabase* db, const IoCounters& run_start,
                 const IoTagBreakdown& tags_start, RunResult* out);

}  // namespace objrep

#endif  // OBJREP_CORE_RUNNER_H_
