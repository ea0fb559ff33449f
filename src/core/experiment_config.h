// Text-format experiment configuration.
//
// The paper drove its experiments from an EQUEL/C program that "first
// generated a sequence of random queries satisfying some parameters",
// planned and ran them, and reported average I/O (§4). The objrep_driver
// tool is that program's analog; this module parses its input:
//
//     # comment
//     parents = 10000
//     size_unit = 5
//     use_factor = 5
//     overlap_factor = 1
//     child_rels = 1
//     buffer_pages = 100
//     cache = on            # builds the Cache relation
//     size_cache = 1000
//     cluster = on          # builds ClusterRel + ISAM
//     seed = 42
//
//     queries = 200
//     num_top = 20
//     pr_update = 0.1
//     update_batch = 5
//     hot_access_prob = 0.0
//
//     strategies = DFS, BFS, DFSCACHE, SMART
//
//     # I/O scheduling (DESIGN.md §9; all default to seed behaviour)
//     prefetch = on         # read-ahead in a fixed 8-page window
//     reclaim_temps = off
//     io_latency_us = 0
//     io_transfer_us = 0
//
//     # network server (DESIGN.md §13; used by objrep_driver --serve)
//     net_port = 0          # 0 = ephemeral, printed at startup
//     net_workers = 4
//     net_max_inflight = 256
//
//     # horizontal sharding (DESIGN.md §14)
//     shards = 1            # >1 = scatter-gather over N engine instances
//
// Unknown keys are an error (typos must not silently become defaults).
#ifndef OBJREP_CORE_EXPERIMENT_CONFIG_H_
#define OBJREP_CORE_EXPERIMENT_CONFIG_H_

#include <string>
#include <vector>

#include "core/strategy.h"
#include "objstore/spec.h"
#include "objstore/workload.h"
#include "util/status.h"

namespace objrep {

struct ExperimentConfig {
  DatabaseSpec db;
  WorkloadSpec workload;
  std::vector<StrategyKind> strategies;
  StrategyOptions options;

  // Network server (src/net/, DESIGN.md §13); used when the driver runs
  // with --serve. The first strategy in `strategies` becomes the server's
  // default (overridable per request by the wire strategy byte).
  uint32_t net_port = 0;           ///< net_port = N (0: ephemeral)
  uint32_t net_workers = 4;        ///< net_workers = K (pool threads)
  uint32_t net_max_inflight = 256; ///< net_max_inflight = N (admission)

  /// shards = N (src/shard/, DESIGN.md §14): hash-partition the store
  /// across N independent engine instances with scatter-gather execution.
  /// 1 (the default) is the ordinary single-engine path.
  uint32_t shards = 1;
};

/// Parses the config text (file contents). On error the Status message
/// names the offending line.
Status ParseExperimentConfig(std::string_view text, ExperimentConfig* out);

/// Parses a strategy name as written in configs ("DFS", "BFSNODUP",
/// "DFSCLUST+CACHE", case-insensitive).
Status ParseStrategyName(std::string_view name, StrategyKind* out);

}  // namespace objrep

#endif  // OBJREP_CORE_EXPERIMENT_CONFIG_H_
