#include "shard/engine.h"

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "mvcc/apply.h"
#include "obs/io_context.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace objrep {
namespace shard {

namespace {

std::vector<ComplexDatabase*> ShardsOf(ShardedDatabase* db) {
  std::vector<ComplexDatabase*> shards;
  for (const auto& shard : db->shards) shards.push_back(shard.get());
  return shards;
}

/// One sub-query offered to the fan-out pool. Whoever flips `claimed`
/// first runs it: a helper, or the caller when it comes to collect. Only a
/// helper run writes the other fields; the pool's future for the task
/// publishes them. (The future is kept outside: the pool's shared state
/// owns the task closure, which owns this struct.)
struct FanOutTask {
  std::atomic<bool> claimed{false};
  Status status;
  /// The helper's own collector, when the request is being profiled.
  ProfileCollector collector;
};

}  // namespace

ShardedEngine::ShardedEngine(ShardedDatabase* db, StrategyOptions options)
    : ShardedEngine(db->spec, ShardsOf(db), db, options) {}

ShardedEngine::ShardedEngine(ComplexDatabase* db, StrategyOptions options)
    : ShardedEngine(db->spec, {db}, nullptr, options) {}

ShardedEngine::ShardedEngine(const DatabaseSpec& spec,
                             std::vector<ComplexDatabase*> shards,
                             const ShardedDatabase* sharded,
                             StrategyOptions options)
    : spec_(spec),
      shards_(std::move(shards)),
      sharded_(sharded),
      options_(options) {
  const uint32_t n = num_shards();
  locks_.reserve(n);
  retrieve_subqueries_.reserve(n);
  update_subqueries_.reserve(n);
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (uint32_t k = 0; k < n; ++k) {
    locks_.push_back(std::make_unique<LockManager>());
    std::string prefix = "shard." + std::to_string(k) + ".";
    retrieve_subqueries_.push_back(
        reg.GetCounter(prefix + "retrieve_subqueries"));
    update_subqueries_.push_back(reg.GetCounter(prefix + "update_subqueries"));
  }
  fanout_helper_subqueries_ =
      reg.GetCounter("shard.fanout_helper_subqueries");
  if (n > 1) {
    // One request's whole fan-out; FanOut grows the pool with the number
    // of concurrent callers.
    fanout_pool_ = std::make_unique<ThreadPool>(n - 1, "shard.fanout_pool");
  }
}

uint32_t ShardedEngine::ShardOfParent(uint32_t parent_key) const {
  return sharded_ == nullptr ? 0 : sharded_->router.ShardOfParent(parent_key);
}

size_t ShardedEngine::num_local_parents(uint32_t k) const {
  return sharded_ == nullptr ? spec_.num_parents
                             : sharded_->local_parents[k].size();
}

ShardedEngine::Lease::~Lease() {
  if (engine_ != nullptr && session_ != nullptr) {
    engine_->Return(kind_, std::move(session_));
  }
}

Status ShardedEngine::Checkout(StrategyKind kind, Lease* out) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> guard(sessions_mu_);
    std::vector<std::unique_ptr<Session>>& pool = idle_[kind];
    if (!pool.empty()) {
      session = std::move(pool.back());
      pool.pop_back();
    }
  }
  if (session == nullptr) {
    // Built outside the mutex: MakeStrategy may allocate per-strategy
    // state (temp budgets, adaptive stats) and must not serialize peers.
    session = std::make_unique<Session>();
    session->per_shard.resize(num_shards());
    for (uint32_t k = 0; k < num_shards(); ++k) {
      OBJREP_RETURN_NOT_OK(
          MakeStrategy(kind, shards_[k], options_, &session->per_shard[k]));
    }
  }
  *out = Lease(this, kind, std::move(session));
  return Status::OK();
}

void ShardedEngine::Return(StrategyKind kind,
                           std::unique_ptr<Session> session) {
  std::lock_guard<std::mutex> guard(sessions_mu_);
  idle_[kind].push_back(std::move(session));
}

bool ShardedEngine::IsPointwise(StrategyKind kind, const Query& q) const {
  switch (kind) {
    case StrategyKind::kDfs:
    case StrategyKind::kDfsCache:
    case StrategyKind::kDfsClust:
    case StrategyKind::kDfsClustCache:
      return true;
    case StrategyKind::kSmart:
      // At or below the threshold SMART is DFSCACHE; above it the
      // breadth-first pass fans out instead.
      return q.num_top <= options_.smart_threshold;
    default:
      return false;
  }
}

bool ShardedEngine::IsSortedMerge(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBfs:
    case StrategyKind::kBfsNoDup:
    case StrategyKind::kBfsJoinIndex:
    case StrategyKind::kBfsHash:
      return true;
    default:
      return false;
  }
}

Status ShardedEngine::RunShardRetrieve(Session* session, uint32_t k,
                                       const Query& q, RetrieveResult* out) {
  retrieve_subqueries_[k]->Add(1);
  // A sub-query runs wholly on one thread — the caller's or a fan-out
  // helper's, each under its own collector — so the thread-local per-tag
  // I/O delta across this bracket is exactly this shard's slice of the
  // request, and the profile's per-shard sums add up to the flat counters
  // by construction.
  ProfileCollector* collector = ProfileCollector::Current();
  uint64_t t0 = 0;
  IoTagBreakdown io_before;
  if (collector != nullptr) {
    t0 = Trace::NowMicros();
    io_before = CurrentThreadIoTags();
  }
  TraceSpan span("shard_retrieve", "shard");
  span.SetArg("shard", k);
  OBJREP_RETURN_NOT_OK(exec::ExecuteRetrieve(
      session->per_shard[k].get(), shards_[k], locks_[k].get(), q, out));
  if (collector != nullptr) {
    collector->AddShard(k, Trace::NowMicros() - t0,
                        CurrentThreadIoTags() - io_before);
  }
  if (out->values.size() != out->oids.size()) {
    return Status::Corruption("shard result values/oids out of step");
  }
  return Status::OK();
}

Status ShardedEngine::RetrievePointwise(Session* session, const Query& q,
                                        RetrieveResult* out) {
  const uint64_t end = static_cast<uint64_t>(q.lo_parent) + q.num_top;
  uint64_t p = q.lo_parent;
  while (p < end) {
    const uint32_t k = ShardOfParent(static_cast<uint32_t>(p));
    uint64_t run_end = p + 1;
    while (run_end < end &&
           ShardOfParent(static_cast<uint32_t>(run_end)) == k) {
      ++run_end;
    }
    Query sub = q;
    sub.lo_parent = static_cast<uint32_t>(p);
    sub.num_top = static_cast<uint32_t>(run_end - p);
    RetrieveResult part;
    OBJREP_RETURN_NOT_OK(RunShardRetrieve(session, k, sub, &part));
    out->values.insert(out->values.end(), part.values.begin(),
                       part.values.end());
    out->oids.insert(out->oids.end(), part.oids.begin(), part.oids.end());
    out->cost += part.cost;
    p = run_end;
  }
  return Status::OK();
}

Status ShardedEngine::FanOut(Session* session, const Query& q,
                             std::vector<RetrieveResult>* parts) {
  const uint32_t n = num_shards();
  parts->resize(n);
  // The pool is sized from the traffic: N-1 helpers for every caller
  // inside FanOut right now, so a sub-query never queues behind another
  // request's sub-query. Device waits are sleeps that hold no core, so the
  // core count is no bound here. The pool keeps its high-water size.
  const uint32_t callers = fanout_callers_.fetch_add(1) + 1;
  if (fanout_pool_ != nullptr) fanout_pool_->GrowTo(callers * (n - 1));
  ProfileCollector* collector = ProfileCollector::Current();
  std::vector<std::shared_ptr<FanOutTask>> tasks(n);
  std::vector<std::future<void>> done(n);
  for (uint32_t k = 1; k < n; ++k) {
    auto task = std::make_shared<FanOutTask>();
    tasks[k] = task;
    // The task borrows `q`, `session` and the part, all alive until this
    // call returns; a task that runs later finds itself claimed and
    // touches only its own FanOutTask. A rejected submit (pool shutting
    // down) is simply claimed by the caller below.
    auto run = [this, task, session, k, qp = &q, part = &(*parts)[k],
                profiled = collector != nullptr] {
      if (task->claimed.exchange(true)) return;
      fanout_helper_subqueries_->Add(1);
      if (!profiled) {
        task->status = RunShardRetrieve(session, k, *qp, part);
        return;
      }
      // The request's collector lives on the caller's thread: this helper
      // reports into its own, billing its whole-task I/O and cache traffic
      // there, for the caller to merge after the join.
      ProfileCollector::Scope scope(&task->collector);
      const IoTagBreakdown io_before = CurrentThreadIoTags();
      const IoThreadState& st = CurrentIoThreadState();
      const uint64_t hits_before = st.cache_hits;
      const uint64_t misses_before = st.cache_misses;
      task->status = RunShardRetrieve(session, k, *qp, part);
      RetrieveProfile& p = task->collector.profile;
      p.io = CurrentThreadIoTags() - io_before;
      p.cache_hits = st.cache_hits - hits_before;
      p.cache_misses = st.cache_misses - misses_before;
    };
    fanout_pool_->TrySubmit(std::move(run), &done[k]);
  }
  std::vector<Status> status(n);
  status[0] = RunShardRetrieve(session, 0, q, &(*parts)[0]);
  // Claim-or-run in shard order: run what no helper has started, wait
  // only for what a helper is already running. Every task is collected,
  // even after an error, because running tasks borrow `q`, `session` and
  // `parts`.
  for (uint32_t k = 1; k < n; ++k) {
    FanOutTask* task = tasks[k].get();
    if (!task->claimed.exchange(true)) {
      status[k] = RunShardRetrieve(session, k, q, &(*parts)[k]);
      continue;
    }
    done[k].wait();
    status[k] = task->status;
    if (collector != nullptr) collector->Merge(task->collector.profile);
  }
  fanout_callers_.fetch_sub(1);
  for (const Status& s : status) {
    OBJREP_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

Status ShardedEngine::RetrieveMerge(Session* session, const Query& q,
                                    bool dedup, RetrieveResult* out) {
  const uint32_t n = num_shards();
  std::vector<RetrieveResult> parts;
  OBJREP_RETURN_NOT_OK(FanOut(session, q, &parts));
  for (const RetrieveResult& part : parts) out->cost += part.cost;
  // K-way merge by packed OID. Every per-shard BFS-family stream is
  // (relation, key)-sorted, so the merged stream reproduces the single
  // engine's order; equal OIDs carry equal values, so ties need no
  // tie-break. With dedup (BFSNODUP) each shard already deduplicated
  // locally and duplicates across shards emerge adjacent here.
  std::vector<size_t> idx(n, 0);
  for (;;) {
    int best = -1;
    uint64_t best_key = 0;
    for (uint32_t k = 0; k < n; ++k) {
      if (idx[k] >= parts[k].oids.size()) continue;
      uint64_t packed = parts[k].oids[idx[k]].Packed();
      if (best < 0 || packed < best_key) {
        best = static_cast<int>(k);
        best_key = packed;
      }
    }
    if (best < 0) break;
    if (dedup && !out->oids.empty() &&
        out->oids.back().Packed() == best_key) {
      ++idx[best];
      continue;
    }
    out->values.push_back(parts[best].values[idx[best]]);
    out->oids.push_back(parts[best].oids[idx[best]]);
    ++idx[best];
  }
  return Status::OK();
}

Status ShardedEngine::RetrieveConcat(Session* session, const Query& q,
                                     RetrieveResult* out) {
  std::vector<RetrieveResult> parts;
  OBJREP_RETURN_NOT_OK(FanOut(session, q, &parts));
  for (const RetrieveResult& part : parts) {
    out->values.insert(out->values.end(), part.values.begin(),
                       part.values.end());
    out->oids.insert(out->oids.end(), part.oids.begin(), part.oids.end());
    out->cost += part.cost;
  }
  return Status::OK();
}

Status ShardedEngine::ExecuteRetrieve(StrategyKind kind, const Query& q,
                                      RetrieveResult* out) {
  Lease lease;
  OBJREP_RETURN_NOT_OK(Checkout(kind, &lease));
  if (IsPointwise(kind, q)) {
    return RetrievePointwise(lease.session(), q, out);
  }
  if (IsSortedMerge(kind)) {
    return RetrieveMerge(lease.session(), q,
                         /*dedup=*/kind == StrategyKind::kBfsNoDup, out);
  }
  return RetrieveConcat(lease.session(), q, out);
}

Status ShardedEngine::ExecuteUpdate(StrategyKind kind, const Query& q) {
  Lease lease;
  OBJREP_RETURN_NOT_OK(Checkout(kind, &lease));
  const uint32_t n = num_shards();
  std::vector<std::vector<Oid>> targets_of(n);
  if (sharded_ == nullptr) {
    targets_of[0] = q.update_targets;  // the one shard holds every child
  } else {
    for (const Oid& oid : q.update_targets) {
      const std::vector<uint32_t>& holders =
          sharded_->router.HoldersOf(oid.Packed());
      if (holders.empty()) {
        return Status::InvalidArgument(
            "update target unknown to shard router");
      }
      for (uint32_t k : holders) {
        targets_of[k].push_back(oid);
      }
    }
  }
  // MVCC with replicas: hold the stripes of every target across the whole
  // fan-out, acquired in ascending stripe index so concurrent updates
  // cannot deadlock. This serializes conflicting updates engine-wide,
  // which makes every holder shard install their versions in the same
  // relative order — the replica-convergence guarantee FCW alone cannot
  // give across independent per-shard clocks. One shard has no replicas.
  std::vector<std::unique_lock<std::mutex>> stripes;
  if (n > 1 && shards_[0]->mvcc != nullptr) {
    std::vector<size_t> ids;
    ids.reserve(q.update_targets.size());
    for (const Oid& oid : q.update_targets) {
      ids.push_back(oid.Packed() % oid_stripes_.size());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    stripes.reserve(ids.size());
    for (size_t id : ids) stripes.emplace_back(oid_stripes_[id]);
  }
  for (uint32_t k = 0; k < n; ++k) {
    if (targets_of[k].empty()) continue;
    Query sub = q;
    sub.update_targets = std::move(targets_of[k]);
    update_subqueries_[k]->Add(1);
    OBJREP_RETURN_NOT_OK(exec::ExecuteUpdate(
        lease.session()->per_shard[k].get(), shards_[k], locks_[k].get(),
        sub));
  }
  return Status::OK();
}

Status ShardedEngine::FoldAll() {
  for (ComplexDatabase* shard : shards_) {
    if (shard->mvcc != nullptr) {
      OBJREP_RETURN_NOT_OK(mvcc::FoldMvcc(shard));
    }
  }
  return Status::OK();
}

}  // namespace shard
}  // namespace objrep
