// Request execution behind the wire boundary (DESIGN.md §13).
//
// ObjService turns a decoded RETRIEVE or UPDATE into a Query, validates it
// against the logical schema, and executes it on a ShardedEngine — the
// only backend. A single database is served as a 1-shard engine that
// borrows it, so locks, WAL transactions, MVCC and pooled strategy
// sessions all live in the engine and the executor beneath it, shared
// with every other front end. Pooled sessions matter for ADAPTIVE: its
// calibrator keeps learning across the requests it serves.
//
// Execute() is thread-safe and is called from the server's worker pool;
// it is also usable without any server at all (tests drive it directly).
#ifndef OBJREP_NET_SERVICE_H_
#define OBJREP_NET_SERVICE_H_

#include <memory>

#include "core/strategy.h"
#include "net/protocol.h"
#include "objstore/database.h"
#include "shard/engine.h"

namespace objrep {
namespace net {

class ObjService {
 public:
  /// Serves `db` through a 1-shard engine that borrows it. `db` must
  /// outlive the service. `default_strategy` serves requests whose
  /// strategy byte is kDefaultStrategyByte.
  ObjService(ComplexDatabase* db, StrategyKind default_strategy,
             StrategyOptions options);

  /// Serves an N-shard engine; the engine's own options apply, so
  /// `options` is unused. `engine` must outlive the service.
  ObjService(shard::ShardedEngine* engine, StrategyKind default_strategy,
             StrategyOptions options);

  ObjService(const ObjService&) = delete;
  ObjService& operator=(const ObjService&) = delete;

  /// Executes one RETRIEVE or UPDATE (the verbs that touch the database;
  /// PING/STATS/SHUTDOWN are answered by the server's event loop).
  /// Returns a fully-populated response — execution failures become
  /// kBadRequest/kError responses, never a crash.
  Response Execute(const Request& req);

  StrategyKind default_strategy() const { return default_strategy_; }
  shard::ShardedEngine* engine() const { return engine_; }

 private:
  Status DoRetrieve(const Request& req, StrategyKind kind, Response* resp);
  Status DoUpdate(const Request& req, StrategyKind kind, Response* resp);

  std::unique_ptr<shard::ShardedEngine> owned_engine_;  // 1-shard only
  shard::ShardedEngine* const engine_;
  const StrategyKind default_strategy_;
};

}  // namespace net
}  // namespace objrep

#endif  // OBJREP_NET_SERVICE_H_
