// Scatter-gather execution over a ShardedDatabase (DESIGN.md §14).
//
// One ShardedEngine fronts N independent engine instances with the same
// Query interface the single-engine strategies expose. Routing by family:
//
//   * DFS family (DFS, DFSCACHE, DFSCLUST, DFSCLUST+CACHE, and SMART at or
//     below its threshold) — point-wise: the parent range is split into
//     runs of consecutive keys owned by the same shard and each run
//     executes on its owner. Output order is parent-ascending, identical
//     to the single engine.
//   * BFS family (BFS, BFSNODUP, BFS-JI, BFS-HASH) — scatter-gather: the
//     query fans out to every shard (each scans only its local parents in
//     range) and the per-shard OID-sorted streams are K-way merged by
//     packed OID, reproducing the single engine's sorted output. BFSNODUP
//     additionally drops cross-shard duplicates during the merge.
//   * SMART above threshold and ADAPTIVE — fan out and concatenate; their
//     output order is cache-state-dependent even on one engine, so only
//     the result multiset is defined.
//
// Fan-out is concurrent: the shards share no pool, disk, latch or lock
// table, so a retrieve waits for its slowest shard, not for the sum of
// all shards. The caller offers shards 1..N-1 to an engine-owned helper
// pool, which keeps N-1 helpers per concurrent caller, runs shard 0
// itself, then collects each remaining shard by claim-or-run — a
// sub-query no helper has started yet is run by the caller, so a helper
// that is slow to be scheduled degrades to the sequential path and a
// caller never waits behind another request's task. Merge and
// concatenation run in shard order after every sub-query finished, so
// answers are those of the sequential engine. Point-wise runs and the
// update fan-out stay sequential on the calling thread.
//
// Every sub-query runs through the one execution path (exec/executor.h)
// on its shard, which picks 2PL, WAL transaction or MVCC snapshot from the
// shard itself.
//
// A single ComplexDatabase is served as a 1-shard engine that borrows it:
// no copy, no holder table and no helper pool, since every parent and
// child lives on shard 0. This is how the network service executes on one
// database.
//
// Each shard has its own LockManager (the scale-out lever: an update
// X-locks only its holder shards, not the whole store), its own adaptive
// planner state (per-session, per-shard AdaptiveStrategy instances with
// independent DynamicStats and calibration residuals), and its own cache.
// Updates fan out to every holder shard of each target; each holder's
// update path runs its local I-lock invalidation, which is what keeps all
// shard caches coherent — the cross-shard invalidation protocol is
// "replicas apply the same update", with no extra message type.
//
// Crash scope: per-shard WAL transactions, no two-phase commit. A crash
// mid-fanout leaves some holders updated and others not; because updates
// write absolute values, recovering the crashed shard and replaying the
// failed query converges every replica (tests/shard_oracle_test.cc).
//
// MVCC mode (spec.enable_mvcc, DESIGN.md §15): each shard owns its own
// version store and clock. Retrieves take a snapshot per shard sub-query
// and skip the shard lock manager entirely — a cross-shard retrieve is
// per-shard consistent, not globally consistent, matching the crash scope
// above (per-shard transactions, no 2PC). With more than one shard,
// updates hold striped per-OID mutexes across the whole holder fan-out so
// two conflicting updates commit in the same relative order on every
// replica shard; within a shard first-committer-wins still applies.
#ifndef OBJREP_SHARD_ENGINE_H_
#define OBJREP_SHARD_ENGINE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/strategy.h"
#include "exec/lock_manager.h"
#include "objstore/database.h"
#include "objstore/workload.h"
#include "shard/sharded_db.h"
#include "util/thread_pool.h"

namespace objrep {

class Counter;

namespace shard {

class ShardedEngine {
 public:
  /// `db` must outlive the engine. Strategy sessions are created lazily
  /// per kind and pooled.
  ShardedEngine(ShardedDatabase* db, StrategyOptions options);

  /// The 1-shard engine: borrows `db`, which must outlive the engine.
  ShardedEngine(ComplexDatabase* db, StrategyOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Appends values/oids to `out` (parallel vectors) and accumulates the
  /// summed per-shard cost, exactly like Strategy::ExecuteRetrieve.
  Status ExecuteRetrieve(StrategyKind kind, const Query& q,
                         RetrieveResult* out);

  /// Fans the update out to every holder shard of each target, each under
  /// its shard's X locks and WAL transaction (2PL mode) or through the
  /// shard's version store (MVCC mode, under engine-level per-OID stripes
  /// when there is more than one shard).
  Status ExecuteUpdate(StrategyKind kind, const Query& q);

  /// MVCC quiescent-point fold on every shard (no-op without MVCC).
  /// Callers must ensure no retrieve/update is in flight.
  Status FoldAll();

  const DatabaseSpec& spec() const { return spec_; }
  const StrategyOptions& options() const { return options_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  ComplexDatabase* shard(uint32_t k) { return shards_[k]; }
  LockManager* lock_manager(uint32_t k) { return locks_[k].get(); }
  /// Owning shard of a parent key, and the number of parents on shard k.
  uint32_t ShardOfParent(uint32_t parent_key) const;
  size_t num_local_parents(uint32_t k) const;

 private:
  /// One checked-out execution context: a strategy instance per shard.
  struct Session {
    std::vector<std::unique_ptr<Strategy>> per_shard;
  };

  class Lease {
   public:
    Lease() = default;
    Lease(ShardedEngine* engine, StrategyKind kind,
          std::unique_ptr<Session> session)
        : engine_(engine), kind_(kind), session_(std::move(session)) {}
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;
    ~Lease();
    Session* session() { return session_.get(); }

   private:
    ShardedEngine* engine_ = nullptr;
    StrategyKind kind_ = StrategyKind::kDfs;
    std::unique_ptr<Session> session_;
  };

  ShardedEngine(const DatabaseSpec& spec,
                std::vector<ComplexDatabase*> shards,
                const ShardedDatabase* sharded, StrategyOptions options);

  Status Checkout(StrategyKind kind, Lease* out);
  void Return(StrategyKind kind, std::unique_ptr<Session> session);

  bool IsPointwise(StrategyKind kind, const Query& q) const;
  static bool IsSortedMerge(StrategyKind kind);

  /// Runs the sub-query on shard `k` through the executor.
  Status RunShardRetrieve(Session* session, uint32_t k, const Query& q,
                          RetrieveResult* out);

  /// Runs `q` on every shard concurrently, shard k's answer into
  /// (*parts)[k]. Returns once every sub-query has finished, with the
  /// first error in shard order.
  Status FanOut(Session* session, const Query& q,
                std::vector<RetrieveResult>* parts);

  Status RetrievePointwise(Session* session, const Query& q,
                           RetrieveResult* out);
  Status RetrieveMerge(Session* session, const Query& q, bool dedup,
                       RetrieveResult* out);
  Status RetrieveConcat(Session* session, const Query& q,
                        RetrieveResult* out);

  const DatabaseSpec& spec_;
  std::vector<ComplexDatabase*> shards_;
  /// The carved store's routing; null for a borrowed single database.
  const ShardedDatabase* sharded_;
  StrategyOptions options_;
  std::vector<std::unique_ptr<LockManager>> locks_;  // one per shard

  /// MVCC update ordering across replicas: an update locks the stripe of
  /// every target OID (ascending stripe index, so no deadlock) before the
  /// holder fan-out and releases after the last holder commits. Two
  /// updates touching a common OID therefore install their versions in
  /// the same order on every holder shard, keeping replicas convergent
  /// without a cross-shard commit protocol.
  std::array<std::mutex, 64> oid_stripes_;

  std::mutex sessions_mu_;
  std::map<StrategyKind, std::vector<std::unique_ptr<Session>>>
      idle_;  // guarded by sessions_mu_

  // Per-shard work attribution ("shard.<k>.*" in the metrics registry).
  std::vector<Counter*> retrieve_subqueries_;
  std::vector<Counter*> update_subqueries_;
  /// Fan-out sub-queries a helper ran ("shard.fanout_helper_subqueries");
  /// the rest of shards 1..N-1 were claimed back by their caller.
  Counter* fanout_helper_subqueries_ = nullptr;

  /// Requests inside FanOut right now; the helper pool grows to N-1
  /// helpers per caller.
  std::atomic<uint32_t> fanout_callers_{0};

  /// Scatter-gather helpers; null with one shard. Declared last so it
  /// joins before any state its tasks use is destroyed.
  std::unique_ptr<ThreadPool> fanout_pool_;
};

}  // namespace shard
}  // namespace objrep

#endif  // OBJREP_SHARD_ENGINE_H_
