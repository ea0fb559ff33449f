#include "mvcc/apply.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/io_context.h"
#include "obs/trace.h"
#include "objstore/rows.h"
#include "record/record.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace objrep {
namespace mvcc {

Status ApplyCommittedValue(ComplexDatabase* db, const Oid& oid,
                           int32_t value) {
  Table* table = db->ChildRelById(oid.rel);
  if (table == nullptr) {
    return Status::InvalidArgument("fold target references unknown relation");
  }
  std::vector<Value> values;
  OBJREP_RETURN_NOT_OK(table->Get(oid.key, &values));
  values[kChildRet1] = Value(value);
  OBJREP_RETURN_NOT_OK(table->UpdateInPlace(oid.key, values));

  if (db->cluster_rel != nullptr) {
    // DFSCLUST reads only the ClusterRel copy; fold it too. A child the
    // cluster index does not know is simply unclustered — skip.
    uint64_t cluster_key;
    if (db->cluster_oid_index.Lookup(oid.Packed(), &cluster_key).ok()) {
      std::vector<Value> cvalues;
      OBJREP_RETURN_NOT_OK(db->cluster_rel->Get(cluster_key, &cvalues));
      cvalues[kClusterRet1] = Value(value);
      std::string encoded;
      OBJREP_RETURN_NOT_OK(
          EncodeRecord(db->cluster_rel->schema(), cvalues, &encoded));
      OBJREP_RETURN_NOT_OK(
          db->cluster_rel->tree().UpdateInPlace(cluster_key, encoded));
    }
  }
  if (db->cache != nullptr) {
    OBJREP_RETURN_NOT_OK(db->cache->InvalidateSubobject(oid));
  }
  return Status::OK();
}

Status FoldMvcc(ComplexDatabase* db) {
  if (db->mvcc == nullptr) return Status::OK();
  MvccManager::Folded folded = db->mvcc->TakeCommittedForFold();
  if (folded.newest.empty() && folded.wal_txns.empty()) return Status::OK();

  // Small write-through transactions rather than one big one: the no-steal
  // pool pins every dirty frame until commit, so a fold covering hundreds
  // of chains in a single transaction could exhaust a small pool. Chunking
  // is crash-safe because the kApplied records below only land after every
  // chunk committed — a crash mid-fold replays the kMvccUpdate records
  // over the partially folded base, and absolute values make that
  // idempotent.
  constexpr size_t kFoldBatch = 4;
  // Fold I/O is background maintenance, not any query's fault: its own
  // tag keeps it out of the retrieve/update columns. Writes inside
  // CommitTxn still re-tag as kWal (innermost wins), exactly like the
  // foreground update path.
  ScopedIoTag tag(IoTag::kMvccFold);
  TraceSpan span("mvcc_fold", "mvcc");
  span.SetArg("chains", folded.newest.size());
  const bool txn = db->pool->wal() != nullptr;
  for (size_t lo = 0; lo < folded.newest.size(); lo += kFoldBatch) {
    const size_t hi = std::min(lo + kFoldBatch, folded.newest.size());
    if (txn) OBJREP_RETURN_NOT_OK(db->pool->BeginTxn());
    for (size_t i = lo; i < hi; ++i) {
      const auto& [packed, value] = folded.newest[i];
      Status s = ApplyCommittedValue(db, Oid::FromPacked(packed), value);
      if (!s.ok()) {
        if (txn) db->pool->AbortTxn();
        return s;
      }
    }
    if (txn) OBJREP_RETURN_NOT_OK(db->pool->CommitTxn());
  }

  // The fold's own pool transaction is durable and write-through, so
  // every MVCC commit it covers is now redundant in the log: appending
  // their deferred kApplied records lets the WAL's MVCC log truncate. A
  // crash before this point replays the kMvccUpdate records over the
  // folded base — absolute values, so the replay converges.
  if (db->wal != nullptr) {
    for (uint64_t t : folded.wal_txns) {
      OBJREP_RETURN_NOT_OK(db->wal->AppendMvccApplied(t));
    }
  }
  return Status::OK();
}

}  // namespace mvcc
}  // namespace objrep
