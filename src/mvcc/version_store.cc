#include "mvcc/version_store.h"

#include <algorithm>

#include "storage/wal.h"
#include "util/macros.h"

namespace objrep {

namespace {

// Registry-only metrics (DESIGN.md §11): versions installed and snapshots
// taken have no per-manager count (live_versions_ is a level).
struct MvccMetrics {
  Counter* versions = MetricsRegistry::Global().GetCounter("mvcc.versions");
  Counter* snapshots =
      MetricsRegistry::Global().GetCounter("mvcc.snapshots");
};

MvccMetrics& Metrics() {
  static MvccMetrics* m = new MvccMetrics();
  return *m;
}

}  // namespace

void MvccManager::Snapshot::Release() {
  if (mgr_ != nullptr) {
    mgr_->ReleaseSnapshot(ts_);
    mgr_ = nullptr;
  }
}

MvccManager::Snapshot MvccManager::BeginSnapshot() {
  std::lock_guard<std::mutex> guard(snaps_mu_);
  // The clock is read under snaps_mu_ so GC (which takes snaps_mu_ to copy
  // the active set) can never observe a registry missing a snapshot whose
  // timestamp it is about to prune against.
  uint64_t ts = clock();
  ++active_[ts];
  Metrics().snapshots->Add(1);
  return Snapshot(this, ts);
}

void MvccManager::ReleaseSnapshot(uint64_t ts) {
  std::lock_guard<std::mutex> guard(snaps_mu_);
  auto it = active_.find(ts);
  OBJREP_CHECK_MSG(it != active_.end(), "snapshot release without register");
  if (--it->second == 0) active_.erase(it);
}

bool MvccManager::ReadVisible(uint64_t packed_oid, uint64_t ts,
                              int32_t* value) const {
  const ChainShard& shard = ShardFor(packed_oid);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.chains.find(packed_oid);
  if (it == shard.chains.end()) return false;
  // Chains are append-only in commit order, hence ts-ascending: binary
  // search for the newest version at or below the snapshot.
  const std::vector<Version>& chain = it->second;
  auto pos = std::upper_bound(
      chain.begin(), chain.end(), ts,
      [](uint64_t t, const Version& v) { return t < v.ts; });
  if (pos == chain.begin()) return false;
  *value = std::prev(pos)->value;
  return true;
}

Status MvccManager::CommitUpdate(uint64_t begin_ts,
                                 const std::vector<uint64_t>& targets,
                                 int32_t new_value, uint64_t* commit_ts) {
  std::lock_guard<std::mutex> guard(commit_mu_);

  // First-committer-wins validation: any version newer than our begin
  // timestamp on any target means a concurrent transaction won the unit.
  for (uint64_t oid : targets) {
    ChainShard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> chain_guard(shard.mu);
    auto it = shard.chains.find(oid);
    if (it != shard.chains.end() && !it->second.empty() &&
        it->second.back().ts > begin_ts) {
      conflicts_.Add();
      return Status::Aborted("first-committer-wins conflict");
    }
  }

  const uint64_t cts = clock_.load(std::memory_order_relaxed) + 1;

  // Durable commit point (can crash at the registered wal.commit.* /
  // wal.sync.torn points). On a crash status nothing was installed
  // in-memory; if the sync made it to disk first, recovery replays the
  // record — the one transaction of ambiguity the oracle tests accept.
  if (wal_ != nullptr) {
    std::vector<std::pair<uint64_t, int32_t>> updates;
    updates.reserve(targets.size());
    for (uint64_t oid : targets) updates.emplace_back(oid, new_value);
    uint64_t txn = wal_->Begin();
    OBJREP_RETURN_NOT_OK(wal_->CommitMvccUpdate(txn, cts, updates));
    pending_wal_txns_.push_back(txn);
  }

  for (uint64_t oid : targets) {
    ChainShard& shard = ShardFor(oid);
    std::lock_guard<std::mutex> chain_guard(shard.mu);
    shard.chains[oid].push_back(Version{cts, new_value});
  }
  live_versions_.fetch_add(targets.size(), std::memory_order_relaxed);
  Metrics().versions->Add(targets.size());

  // Publish only after every version is installed: a snapshot that reads
  // clock == cts is guaranteed to find all of cts's versions.
  clock_.store(cts, std::memory_order_release);
  commits_.Add();
  if (commit_ts != nullptr) *commit_ts = cts;

  if (++commits_since_gc_ >= kGcInterval) {
    commits_since_gc_ = 0;
    GcLocked();
  }
  return Status::OK();
}

void MvccManager::GcLocked() {
  // Interval pruning: a version is live iff it is the newest of its chain
  // or it is what some active snapshot reads. With the active timestamps
  // sorted, one backward sweep per chain keeps at most one version per
  // (snapshot interval), bounding chain length by #active snapshots + 1.
  std::vector<uint64_t> snaps;
  {
    std::lock_guard<std::mutex> guard(snaps_mu_);
    snaps.reserve(active_.size());
    for (const auto& [ts, refs] : active_) snaps.push_back(ts);
  }
  uint64_t reclaimed = 0;
  for (ChainShard& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (auto& [oid, chain] : shard.chains) {
      if (chain.size() <= 1) continue;
      std::vector<Version> kept;
      kept.reserve(snaps.size() + 1);
      size_t si = 0;
      for (size_t i = 0; i < chain.size(); ++i) {
        const bool newest = i + 1 == chain.size();
        // Visible to some snapshot iff a snapshot ts lands in
        // [chain[i].ts, chain[i+1].ts). Snapshots below every version
        // read the base value and pin nothing.
        bool pinned = false;
        while (si < snaps.size() && snaps[si] < chain[i].ts) ++si;
        if (si < snaps.size() &&
            (newest || snaps[si] < chain[i + 1].ts)) {
          pinned = true;
        }
        if (newest || pinned) kept.push_back(chain[i]);
      }
      reclaimed += chain.size() - kept.size();
      chain = std::move(kept);
    }
  }
  live_versions_.fetch_sub(reclaimed, std::memory_order_relaxed);
  reclaimed_.Add(reclaimed);
  gc_runs_.Add();
}

void MvccManager::RunGc() {
  std::lock_guard<std::mutex> guard(commit_mu_);
  GcLocked();
}

MvccManager::Folded MvccManager::TakeCommittedForFold() {
  std::lock_guard<std::mutex> guard(commit_mu_);
  Folded out;
  for (ChainShard& shard : shards_) {
    std::lock_guard<std::mutex> chain_guard(shard.mu);
    for (auto& [oid, chain] : shard.chains) {
      if (!chain.empty()) {
        out.newest.emplace_back(oid, chain.back().value);
      }
    }
    shard.chains.clear();
  }
  // Deterministic fold order (chains come out of hash maps).
  std::sort(out.newest.begin(), out.newest.end());
  live_versions_.store(0, std::memory_order_relaxed);
  out.wal_txns = std::move(pending_wal_txns_);
  pending_wal_txns_.clear();
  return out;
}

void MvccManager::ResetForRecovery(uint64_t restored_clock) {
  std::lock_guard<std::mutex> guard(commit_mu_);
  for (ChainShard& shard : shards_) {
    std::lock_guard<std::mutex> chain_guard(shard.mu);
    shard.chains.clear();
  }
  live_versions_.store(0, std::memory_order_relaxed);
  pending_wal_txns_.clear();
  commits_since_gc_ = 0;
  clock_.store(restored_clock, std::memory_order_release);
}

MvccStats MvccManager::stats() const {
  MvccStats s;
  s.commits = commits_.value();
  s.conflicts = conflicts_.value();
  s.versions_live = live_versions_.load(std::memory_order_relaxed);
  s.versions_reclaimed = reclaimed_.value();
  s.gc_runs = gc_runs_.value();
  {
    std::lock_guard<std::mutex> guard(snaps_mu_);
    for (const auto& [ts, refs] : active_) s.snapshots_active += refs;
  }
  return s;
}

}  // namespace objrep
