// Async network server for the object store (DESIGN.md §13).
//
// One epoll event-loop thread multiplexes every connection: it accepts,
// reads, frames (net/frame.h), and parses requests, then dispatches
// RETRIEVE/UPDATE work onto a ThreadPool shared with the execution
// engine's idiom; responses come back through a completion queue and are
// flushed from per-connection write buffers. PING and STATS are answered
// directly on the loop — liveness and introspection must keep working
// while the pool is saturated. Workers execute through ObjService, whose
// only backend is a ShardedEngine (a single database is a 1-shard engine),
// so STATS always reports one entry per shard.
//
// Admission control (overload degrades, never collapses):
//   * a global in-flight budget (`max_inflight`): requests beyond it get
//     an immediate SERVER_BUSY response and are NOT executed — the
//     queue to the pool is bounded, so admitted requests see bounded
//     queueing delay;
//   * a per-connection in-flight cap (`max_conn_inflight`): a connection
//     at its cap stops being *read* (EPOLLIN is dropped), pushing
//     backpressure into the kernel socket buffer and from there to the
//     client — one firehose connection cannot monopolize the budget or
//     the server's memory;
//   * frame and payload sizes are bounded by the codec; a corrupt frame
//     draws one final error response and the connection is closed (a
//     desynced stream cannot be trusted for framing).
//
// Shutdown is a graceful drain: stop accepting, reject newly-arriving
// requests with SHUTTING_DOWN, run every admitted request to completion,
// flush every response, then close. The drain deadline bounds how long a
// stuck client can pin the process. The SHUTDOWN verb triggers the same
// path from the wire.
#ifndef OBJREP_NET_SERVER_H_
#define OBJREP_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "core/strategy.h"
#include "net/service.h"
#include "util/status.h"

namespace objrep {
namespace net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port with port()
  /// Worker threads executing RETRIEVE/UPDATE against the database.
  uint32_t num_workers = 4;
  /// Global admitted-but-unfinished request budget (>= 1). Beyond it,
  /// SERVER_BUSY.
  uint32_t max_inflight = 256;
  /// Per-connection in-flight cap; at the cap the connection's reads are
  /// throttled instead of rejected.
  uint32_t max_conn_inflight = 32;
  /// Strategy for requests that do not override it.
  StrategyKind default_strategy = StrategyKind::kDfs;
  StrategyOptions strategy_options;
  /// Arms the slow-query ring: requests at or above this latency get their
  /// full RetrieveProfile captured and exposed through STATS. 0 = off.
  uint64_t slow_query_us = 0;
  /// Keeps the traffic heat map recording while serving (the tracker is
  /// cheap enough to leave on — see bench/obs_overhead).
  bool enable_heat = true;
};

class ObjServer {
 public:
  /// Serves `db` as a 1-shard engine that borrows it (see ObjService).
  /// `db` must outlive the server.
  ObjServer(ComplexDatabase* db, ServerConfig config);

  /// Serves an N-shard scatter-gather engine. `engine` must outlive the
  /// server.
  ObjServer(shard::ShardedEngine* engine, ServerConfig config);
  ~ObjServer();  ///< Stop()s if still running.

  ObjServer(const ObjServer&) = delete;
  ObjServer& operator=(const ObjServer&) = delete;

  /// Binds, listens, and starts the event loop + worker pool.
  Status Start();

  /// Port actually bound (differs from config.port when that was 0).
  uint16_t port() const { return port_; }

  /// Async-signal-safe graceful-stop request (atomic store + eventfd
  /// write): begins the drain but does not wait. Safe from any thread and
  /// from signal handlers.
  void RequestStop();

  /// Blocks until the event loop has drained and exited — after a
  /// RequestStop(), a SHUTDOWN verb, or a Stop() elsewhere.
  void Wait();

  /// Graceful drain then full teardown (joins loop + workers). Idempotent.
  void Stop();

  /// Runtime-adjustable admission budget (benches sweep overload points
  /// against one server).
  void set_max_inflight(uint32_t n);

  /// Monotonic counters since Start(). The process metrics registry's
  /// net.* counters sum them over every server.
  struct Stats {
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t requests_admitted = 0;   ///< dispatched to the pool
    uint64_t responses = 0;           ///< pool completions returned
    uint64_t busy_rejected = 0;       ///< SERVER_BUSY sent
    uint64_t shutdown_rejected = 0;   ///< SHUTTING_DOWN sent
    uint64_t bad_frames = 0;          ///< corrupt/truncated frames seen
    uint64_t pings = 0;
    int64_t connections = 0;          ///< currently open
    int64_t inflight = 0;             ///< admitted, response not yet queued
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<uint16_t> port_{0};
};

}  // namespace net
}  // namespace objrep

#endif  // OBJREP_NET_SERVER_H_
