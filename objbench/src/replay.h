// Single-threaded replay of a fixed slice of the generated retrieves
// through three public entry points in turn, each timed by the benchmark:
//
//   client   ObjClient::Call over loopback to the idle server
//   service  ObjService::Execute on the same database, no socket
//   core     Strategy::ExecuteRetrieve (ShardedEngine::ExecuteRetrieve
//            when sharded), no service
//
// One untimed core pass first brings the buffer pools to the slice's
// steady state. Adjacent differences give uncontended self times; the
// registry deltas inside the client pass split the server side into
// thread-pool queue wait and execute time, and disk.device_us inside the
// core pass splits storage off from core.
#ifndef OBJBENCH_REPLAY_H_
#define OBJBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "objstore/workload.h"
#include "util/status.h"

namespace objbench {

class Deployment;

/// Per-retrieve means, microseconds.
struct ReplayResult {
  uint32_t retrieves = 0;
  double client_us = 0;          ///< client pass
  double queue_us = 0;           ///< thread-pool queue wait, client pass
  double server_execute_us = 0;  ///< net.request_us, client pass
  double service_us = 0;         ///< service pass
  double core_us = 0;            ///< core pass
  double storage_us = 0;         ///< simulated device time, core pass
  double shard_sum_us = 0;       ///< per-shard sub-queries, core pass

  double net_self_us() const { return client_us - queue_us - server_execute_us; }
  double service_self_us() const { return service_us - core_us; }
  double core_self_us() const { return core_us - storage_us; }
  double sum_of_layers_us() const {
    return net_self_us() + queue_us + service_self_us() + core_self_us() +
           storage_us;
  }
  /// Replayed client latency the layers do not account for: the in-server
  /// execute time of the client pass minus the direct service pass.
  double residual_us() const { return client_us - sum_of_layers_us(); }
};

/// Replays the first `count` retrieves of `requests`. The server must be
/// idle; the replay leaves it running.
objrep::Status Replay(Deployment* d, const std::vector<objrep::Query>& requests,
                      uint32_t count, ReplayResult* out);

}  // namespace objbench

#endif  // OBJBENCH_REPLAY_H_
