#include "exec/concurrent_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "exec/executor.h"
#include "exec/lock_manager.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace objrep {

namespace {

using Clock = std::chrono::steady_clock;

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[std::min(rank - 1, sorted.size() - 1)];
}

/// Per-worker execution state and tallies (owned by exactly one thread;
/// aggregated by the caller after the join — no shared mutable state).
struct WorkerResult {
  Status status;
  uint32_t num_queries = 0;
  uint32_t num_retrieves = 0;
  uint32_t num_updates = 0;
  uint64_t result_count = 0;
  int64_t result_sum = 0;
  std::vector<double> latencies_us;
  std::vector<double> retrieve_latencies_us;
};

Status ExecuteOne(Strategy* strategy, ComplexDatabase* db,
                  LockManager* locks, const Query& q, WorkerResult* wr) {
  if (q.kind == Query::Kind::kRetrieve) {
    TraceSpan span("retrieve", "query");
    span.SetArg("num_top", q.num_top);
    RetrieveResult result;
    OBJREP_RETURN_NOT_OK(
        exec::ExecuteRetrieve(strategy, db, locks, q, &result));
    wr->result_count += result.values.size();
    for (int32_t v : result.values) wr->result_sum += v;
    ++wr->num_retrieves;
  } else {
    TraceSpan span("update", "query");
    span.SetArg("targets", q.update_targets.size());
    OBJREP_RETURN_NOT_OK(exec::ExecuteUpdate(strategy, db, locks, q));
    ++wr->num_updates;
  }
  ++wr->num_queries;
  return Status::OK();
}

void RunWorker(Strategy* strategy, ComplexDatabase* db, LockManager* locks,
               const std::vector<const Query*>& slice,
               const ConcurrentRunOptions& options, uint32_t worker_index,
               WorkerResult* wr) {
  if (slice.empty()) return;
  Rng rng = Rng(options.seed).ForStream(worker_index);
  Clock::time_point deadline{};
  const bool timed = options.duration_seconds > 0;
  if (timed) {
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      options.duration_seconds));
  }
  size_t next = 0;
  for (;;) {
    const Query* q;
    if (timed) {
      if (Clock::now() >= deadline) break;
      q = slice[rng.Uniform(slice.size())];
    } else {
      if (next >= slice.size()) break;
      q = slice[next++];
    }
    Clock::time_point t0 = Clock::now();
    wr->status = ExecuteOne(strategy, db, locks, *q, wr);
    if (!wr->status.ok()) return;
    double us = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count();
    wr->latencies_us.push_back(us);
    if (q->kind == Query::Kind::kRetrieve) {
      wr->retrieve_latencies_us.push_back(us);
    }
  }
}

}  // namespace

LatencySummary SummarizeLatencies(std::vector<double>* samples_us) {
  LatencySummary s;
  if (samples_us->empty()) return s;
  std::sort(samples_us->begin(), samples_us->end());
  s.count = samples_us->size();
  double sum = 0;
  for (double v : *samples_us) sum += v;
  s.mean_us = sum / static_cast<double>(s.count);
  s.p50_us = PercentileSorted(*samples_us, 50);
  s.p95_us = PercentileSorted(*samples_us, 95);
  s.p99_us = PercentileSorted(*samples_us, 99);
  s.p999_us = PercentileSorted(*samples_us, 99.9);
  s.max_us = samples_us->back();
  return s;
}

Status RunConcurrentWorkload(StrategyKind kind,
                             const StrategyOptions& strategy_options,
                             ComplexDatabase* db,
                             const std::vector<Query>& queries,
                             const ConcurrentRunOptions& options,
                             ConcurrentRunResult* out) {
  *out = ConcurrentRunResult{};
  const uint32_t k = options.num_threads == 0 ? 1 : options.num_threads;
  out->num_threads = k;

  // One session (strategy instance) per worker, all over the shared db.
  std::vector<std::unique_ptr<Strategy>> sessions(k);
  for (uint32_t w = 0; w < k; ++w) {
    OBJREP_RETURN_NOT_OK(MakeStrategy(kind, db, strategy_options,
                                      &sessions[w]));
  }

  // Round-robin partition: query i -> worker i mod K, order preserved.
  std::vector<std::vector<const Query*>> slices(k);
  for (size_t i = 0; i < queries.size(); ++i) {
    slices[i % k].push_back(&queries[i]);
  }

  db->pool->ResetStats();
  if (db->cache != nullptr) db->cache->ResetStats();
  LockManager locks;
  std::vector<WorkerResult> results(k);
  IoCounters io_start = db->disk->counters();
  IoTagBreakdown tags_start = db->disk->breakdown();

  Clock::time_point wall0 = Clock::now();
  {
    ThreadPool pool(k, "threadpool");
    std::vector<std::future<void>> futures;
    futures.reserve(k);
    for (uint32_t w = 0; w < k; ++w) {
      futures.push_back(pool.Submit([&, w] {
        RunWorker(sessions[w].get(), db, &locks, slices[w], options, w,
                  &results[w]);
      }));
    }
    for (auto& f : futures) f.get();
  }
  out->wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  RunResult& r = out->combined;
  std::vector<double> all_lat, ret_lat;
  for (WorkerResult& wr : results) {
    OBJREP_RETURN_NOT_OK(wr.status);
    r.num_queries += wr.num_queries;
    r.num_retrieves += wr.num_retrieves;
    r.num_updates += wr.num_updates;
    r.result_count += wr.result_count;
    r.result_sum += wr.result_sum;
    all_lat.insert(all_lat.end(), wr.latencies_us.begin(),
                   wr.latencies_us.end());
    ret_lat.insert(ret_lat.end(), wr.retrieve_latencies_us.begin(),
                   wr.retrieve_latencies_us.end());
  }

  // Every worker has joined: the quiescent point FinishRun needs. Skipped
  // on worker error (the loop above already returned) — after a crash the
  // pool needs recovery before it can run the MVCC fold's transaction.
  OBJREP_RETURN_NOT_OK(FinishRun(db, io_start, tags_start, &r));
  r.total_io = r.io.total();

  out->queries_per_sec =
      out->wall_seconds > 0
          ? static_cast<double>(r.num_queries) / out->wall_seconds
          : 0;
  out->avg_io_per_query = r.AvgIoPerQuery();
  out->latency = SummarizeLatencies(&all_lat);
  out->retrieve_latency = SummarizeLatencies(&ret_lat);
  return Status::OK();
}

}  // namespace objrep
