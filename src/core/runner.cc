#include "core/runner.h"

#include "exec/executor.h"
#include "mvcc/apply.h"
#include "obs/trace.h"

namespace objrep {

Status RunWorkload(Strategy* strategy, ComplexDatabase* db,
                   const std::vector<Query>& queries, RunResult* out) {
  *out = RunResult{};
  // Start the measurement window clean: buffer-pool hit/miss counters and
  // cache statistics describe this sequence only, not the database build or
  // any earlier run against the same pool.
  db->pool->ResetStats();
  if (db->cache != nullptr) db->cache->ResetStats();
  IoCounters run_start = db->disk->counters();
  IoTagBreakdown tags_start = db->disk->breakdown();

  for (const Query& q : queries) {
    IoCounters before = db->disk->counters();
    if (q.kind == Query::Kind::kRetrieve) {
      TraceSpan span("retrieve", "query");
      span.SetArg("num_top", q.num_top);
      RetrieveResult result;
      OBJREP_RETURN_NOT_OK(
          exec::ExecuteRetrieve(strategy, db, /*locks=*/nullptr, q, &result));
      uint64_t io = (db->disk->counters() - before).total();
      span.SetArg("io", io);
      out->retrieve_io += io;
      out->retrieve_cost += result.cost;
      out->result_count += result.values.size();
      for (int32_t v : result.values) out->result_sum += v;
      ++out->num_retrieves;
    } else {
      TraceSpan span("update", "query");
      span.SetArg("targets", q.update_targets.size());
      OBJREP_RETURN_NOT_OK(
          exec::ExecuteUpdate(strategy, db, /*locks=*/nullptr, q));
      out->update_io += (db->disk->counters() - before).total();
      ++out->num_updates;
    }
    ++out->num_queries;
  }

  OBJREP_RETURN_NOT_OK(FinishRun(db, run_start, tags_start, out));
  out->total_io = out->retrieve_io + out->update_io + out->flush_io;
  return Status::OK();
}

Status FinishRun(ComplexDatabase* db, const IoCounters& run_start,
                 const IoTagBreakdown& tags_start, RunResult* out) {
  IoCounters before_flush = db->disk->counters();
  {
    TraceSpan span("flush", "query");
    // Quiescent point: fold the committed MVCC versions onto base pages,
    // so the flush below and any later plain read see every update.
    if (db->mvcc != nullptr) OBJREP_RETURN_NOT_OK(mvcc::FoldMvcc(db));
    OBJREP_RETURN_NOT_OK(db->pool->FlushAll());
  }
  out->flush_io = (db->disk->counters() - before_flush).total();
  out->io = db->disk->counters() - run_start;
  out->io_by_tag = db->disk->breakdown() - tags_start;
  if (db->cache != nullptr) out->cache_stats = db->cache->stats();
  return Status::OK();
}

}  // namespace objrep
