// One running system under test: the database (or sharded engine) built
// from a seed, with an in-process ObjServer in front of it on loopback.
#ifndef OBJBENCH_DEPLOYMENT_H_
#define OBJBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/strategy.h"
#include "net/server.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"
#include "util/status.h"
#include "workloads.h"

namespace objbench {

class Deployment {
 public:
  /// Builds the database for `def` and `seed`, generates `num_requests`
  /// requests into `*requests` (when non-null) before the server starts,
  /// then starts the server and waits for its first successful RETRIEVE.
  /// `*setup_s` is the build time plus the time from server start to that
  /// first answer; request generation is not part of it.
  static objrep::Status Create(const WorkloadDef& def, uint64_t seed,
                               uint32_t num_requests,
                               std::vector<objrep::Query>* requests,
                               std::unique_ptr<Deployment>* out,
                               double* setup_s);

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  uint16_t port() const { return server_->port(); }
  const WorkloadDef& def() const { return def_; }

  /// Every simulated volume: the single database, or one per shard.
  const std::vector<objrep::ComplexDatabase*>& volumes() const {
    return volumes_;
  }
  /// The single database; null when sharded.
  objrep::ComplexDatabase* db() { return db_.get(); }
  /// The scatter-gather engine; null for a single database.
  objrep::shard::ShardedEngine* engine() { return engine_.get(); }

  /// Logical user bytes: parent plus child tuples at their declared widths.
  uint64_t UserBytes() const;

  /// Runs `q` directly on the storage engine, bypassing server and
  /// service: Strategy::ExecuteRetrieve on a single database,
  /// ShardedEngine::ExecuteRetrieve otherwise. Callers keep the server
  /// idle meanwhile.
  objrep::Status DirectRetrieve(const objrep::Query& q,
                                objrep::RetrieveResult* out);

  /// Sets the simulated seek time on every volume.
  void SetDeviceLatency(uint32_t us);

 private:
  explicit Deployment(const WorkloadDef& def) : def_(def) {}

  WorkloadDef def_;
  std::unique_ptr<objrep::ComplexDatabase> db_;
  std::unique_ptr<objrep::shard::ShardedDatabase> sdb_;
  std::unique_ptr<objrep::shard::ShardedEngine> engine_;
  std::vector<objrep::ComplexDatabase*> volumes_;
  std::unique_ptr<objrep::Strategy> direct_;  // lazily made, single db
  // Declared last: destroyed (stopped) before the data it serves.
  std::unique_ptr<objrep::net::ObjServer> server_;
};

}  // namespace objbench

#endif  // OBJBENCH_DEPLOYMENT_H_
