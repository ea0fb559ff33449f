// The one query-execution path (DESIGN.md §8).
//
// Every front end runs a query against one ComplexDatabase through these
// two calls: the sequential RunWorkload, each ConcurrentRunner worker, and
// each ShardedEngine sub-query — which is also how the network service
// executes, since it fronts a single database as a 1-shard engine. They
// are the only code that chooses between the three execution modes:
//
//   * MVCC (db->mvcc set, DESIGN.md §15): a retrieve reads a registered
//     snapshot and an update commits through the version store. No table
//     locks: base pages stay frozen until the quiescent-point fold.
//   * 2PL (DESIGN.md §8): the query holds its table-lock set for its whole
//     execution when a LockManager is given. With a WAL attached to the
//     pool, an update is one transaction (DESIGN.md §10).
//   * plain: no locks and no WAL — the paper's single query stream.
//
// Time spent waiting for table locks and in MVCC commits is reported into
// the calling thread's installed ProfileCollector, if any (DESIGN.md §16).
#ifndef OBJREP_EXEC_EXECUTOR_H_
#define OBJREP_EXEC_EXECUTOR_H_

#include "core/strategy.h"
#include "exec/lock_manager.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "util/status.h"

namespace objrep {
namespace exec {

/// Runs retrieve `q` through `session` (a strategy over `db`), appending to
/// `out` exactly like Strategy::ExecuteRetrieve. `locks` may be null: a
/// single query stream needs no table locks.
Status ExecuteRetrieve(Strategy* session, ComplexDatabase* db,
                       LockManager* locks, const Query& q,
                       RetrieveResult* out);

/// Runs update `q` through `session` (a strategy over `db`) and commits it.
/// `locks` may be null, as for ExecuteRetrieve.
Status ExecuteUpdate(Strategy* session, ComplexDatabase* db,
                     LockManager* locks, const Query& q);

}  // namespace exec
}  // namespace objrep

#endif  // OBJREP_EXEC_EXECUTOR_H_
