#include "exec/executor.h"

#include <utility>
#include <vector>

#include "mvcc/engine.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"

namespace objrep {
namespace exec {

namespace {

/// Table-lock footprint of one query: retrieves hold S on every relation
/// their strategy may read subobjects from (all child relations, plus
/// ClusterRel when built); updates hold X on the relations containing
/// their targets (plus ClusterRel, where clustering strategies place the
/// subobjects). ParentRel and the join index are never written, so they
/// need no lock. ScopedLockSet sorts and dedups, giving the
/// ordered-acquisition deadlock freedom of DESIGN.md §8.
std::vector<std::pair<LockId, LockMode>> LockRequestsFor(
    const ComplexDatabase& db, const Query& q) {
  std::vector<std::pair<LockId, LockMode>> reqs;
  if (q.kind == Query::Kind::kRetrieve) {
    reqs.reserve(db.child_rels.size() + 1);
    for (const Table* t : db.child_rels) {
      reqs.emplace_back(t->rel_id(), LockMode::kShared);
    }
    if (db.cluster_rel != nullptr) {
      reqs.emplace_back(db.cluster_rel->rel_id(), LockMode::kShared);
    }
  } else {
    reqs.reserve(q.update_targets.size() + 1);
    for (const Oid& oid : q.update_targets) {
      reqs.emplace_back(oid.rel, LockMode::kExclusive);
    }
    if (db.cluster_rel != nullptr) {
      reqs.emplace_back(db.cluster_rel->rel_id(), LockMode::kExclusive);
    }
  }
  return reqs;
}

/// Acquires `q`'s lock set on `locks` (nothing when null) and bills the
/// wait to the installed profile.
ScopedLockSet LockFor(LockManager* locks, const ComplexDatabase& db,
                      const Query& q) {
  if (locks == nullptr) return ScopedLockSet();
  const uint64_t t0 = Trace::NowMicros();
  ScopedLockSet held(locks, LockRequestsFor(db, q));
  if (ProfileCollector* c = ProfileCollector::Current()) {
    c->AddLockWait(Trace::NowMicros() - t0);
  }
  return held;
}

}  // namespace

Status ExecuteRetrieve(Strategy* session, ComplexDatabase* db,
                       LockManager* locks, const Query& q,
                       RetrieveResult* out) {
  if (db->mvcc != nullptr) {
    return mvcc::SnapshotRetrieve(session, db, q, out);
  }
  ScopedLockSet held = LockFor(locks, *db, q);
  return session->ExecuteRetrieve(q, out);
}

Status ExecuteUpdate(Strategy* session, ComplexDatabase* db,
                     LockManager* locks, const Query& q) {
  if (db->mvcc != nullptr) {
    // Conflicts only on overlapping targets (first-committer-wins,
    // retried inside MvccUpdate).
    const uint64_t t0 = Trace::NowMicros();
    Status s = mvcc::MvccUpdate(db, q);
    if (ProfileCollector* c = ProfileCollector::Current()) {
      c->AddCommitWait(Trace::NowMicros() - t0);
    }
    return s;
  }
  ScopedLockSet held = LockFor(locks, *db, q);
  if (db->pool->wal() == nullptr) return session->ExecuteUpdate(q);
  // The X table locks are already held, so wal_mu_ ranks below them
  // (DESIGN.md §10 latch order) and cannot deadlock against another
  // session's query.
  OBJREP_RETURN_NOT_OK(db->pool->BeginTxn());
  Status s = session->ExecuteUpdate(q);
  if (!s.ok()) {
    db->pool->AbortTxn();
    return s;
  }
  return db->pool->CommitTxn();
}

}  // namespace exec
}  // namespace objrep
