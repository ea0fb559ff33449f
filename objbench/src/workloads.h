// The benchmark's named workloads (README.md gives the reasoning for each).
//
// A workload fixes everything but the seed: the database shape, the
// deployment (one database or a sharded engine behind ObjServer), the
// strategy the server runs, the traffic mix, and the closed-loop load
// model. The seed picks the database contents and the request stream.
#ifndef OBJBENCH_WORKLOADS_H_
#define OBJBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "objstore/spec.h"
#include "objstore/workload.h"

namespace objbench {

struct WorkloadDef {
  std::string name;
  objrep::DatabaseSpec db;
  uint32_t shards = 1;  ///< > 1 fronts a ShardedEngine
  objrep::StrategyKind strategy = objrep::StrategyKind::kDfs;
  /// Request mix: num_top, pr_update, update_batch and the skew fields.
  /// num_queries is derived from the run length (see RequestsFor).
  objrep::WorkloadSpec traffic;

  // Closed-loop load model.
  uint32_t connections = 1;  ///< synchronous ObjClient connections
  uint32_t workers = 1;      ///< server worker threads
  /// The whole process (set-up, server and clients) runs on this many CPUs
  /// at a time, moving on to the next ones at each slice boundary of a
  /// measured window; 0 leaves it on every CPU it may use.
  uint32_t cpus = 0;
  double warmup_s = 0.5;     ///< untimed traffic before the measured window
  /// Requests generated per second of warm-up + measurement. Clients cycle
  /// through their share when the generated stream runs out.
  uint32_t requests_per_s = 1000;

  uint32_t setup_repeats = 3;  ///< setup_s is the median of this many
  /// Read-only workloads: every check_every-th request a client sends while
  /// latencies are recorded is kept; max_checks of them, spread evenly over
  /// the run, are compared against a direct execution.
  uint32_t check_every = 16;
  uint32_t max_checks = 1000;
  /// Retrieves replayed single-threaded through each layer's entry point.
  uint32_t replay_retrieves = 100;

  bool read_only() const { return traffic.pr_update == 0.0; }
  /// Depth-first strategies return values in reference order.
  bool ordered_results() const;
  uint32_t RequestsFor(double seconds) const;
  /// Parameters, load model, device model and flush policy, as text.
  std::string Describe() const;
};

/// The named workloads in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Looks `name` up. `small` shrinks every size to the self-test's minimum.
/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, bool small, WorkloadDef* out);

}  // namespace objbench

#endif  // OBJBENCH_WORKLOADS_H_
