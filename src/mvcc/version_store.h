// Multi-version concurrency control: version chains, timestamps, snapshot
// registry, and first-committer-wins commit (DESIGN.md §15).
//
// The engine keeps base pages *frozen* while concurrent execution runs:
// an MVCC update never touches a base relation. Instead it installs
// versions — absolute (packed child OID -> new ret1) pairs stamped with a
// commit timestamp — into this in-memory store and logs one logical
// kMvccUpdate WAL record. Retrieves therefore need no table S lock and no
// page-content isolation at all: they read the immutable base through the
// ordinary strategy code and overlay the newest version visible at their
// begin timestamp (src/mvcc/engine.h). Updates conflict only on
// overlapping target OIDs — first committer wins; the loser gets
// Status::Aborted and retries from a fresh timestamp — which is exactly
// the "X scope shrunk from table to touched units" the ROADMAP asks for.
//
// Timestamps: `clock()` is the newest committed timestamp. A snapshot
// reads at ts = clock() and sees every version with commit_ts <= ts. A
// commit installs its versions first and only then publishes the new
// clock value (release store), so a published timestamp never names a
// half-installed commit. Commits are serialized on one mutex — at most
// one commit is in flight at a crash, bounding recovery ambiguity to the
// committed set +- that one transaction.
//
// Durability: when a Wal is attached, commit = Begin + CommitMvccUpdate —
// the log sync is the commit point, reusing the wal.commit.* crash
// points. The matching kApplied is deferred until a fold
// (mvcc/apply.h) writes the newest versions onto base pages at a quiescent
// point and hands the WAL txn ids back via TakeCommittedForFold.
//
// GC: interval pruning against the active snapshot registry. A chain
// keeps its newest version plus, for each active snapshot, the version
// that snapshot reads — so chain length is bounded by #active snapshots
// + 1 regardless of how long a straggler snapshot lives, and an idle
// store holds exactly one version per updated OID.
#ifndef OBJREP_MVCC_VERSION_STORE_H_
#define OBJREP_MVCC_VERSION_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace objrep {

class Wal;

/// Point-in-time counters for tests and the driver's report.
struct MvccStats {
  uint64_t commits = 0;           ///< successful CommitUpdate calls
  uint64_t conflicts = 0;         ///< first-committer-wins aborts
  uint64_t versions_live = 0;     ///< versions currently in chains
  uint64_t versions_reclaimed = 0;///< versions pruned by GC
  uint64_t gc_runs = 0;
  uint64_t snapshots_active = 0;
};

class MvccManager {
 public:
  /// `wal` may be null (in-memory MVCC without durability). When set, the
  /// Wal must outlive the manager.
  explicit MvccManager(Wal* wal) : wal_(wal) {}
  MvccManager(const MvccManager&) = delete;
  MvccManager& operator=(const MvccManager&) = delete;

  /// RAII registration of one consistent read timestamp. While alive, GC
  /// preserves the version every chain shows at ts().
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&& o) noexcept : mgr_(o.mgr_), ts_(o.ts_) {
      o.mgr_ = nullptr;
    }
    Snapshot& operator=(Snapshot&& o) noexcept {
      if (this != &o) {
        Release();
        mgr_ = o.mgr_;
        ts_ = o.ts_;
        o.mgr_ = nullptr;
      }
      return *this;
    }
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    ~Snapshot() { Release(); }

    uint64_t ts() const { return ts_; }

   private:
    friend class MvccManager;
    Snapshot(MvccManager* mgr, uint64_t ts) : mgr_(mgr), ts_(ts) {}
    void Release();

    MvccManager* mgr_ = nullptr;
    uint64_t ts_ = 0;
  };

  /// Registers and returns a snapshot at the current clock.
  Snapshot BeginSnapshot();

  /// Newest committed timestamp (acquire load).
  uint64_t clock() const { return clock_.load(std::memory_order_acquire); }

  /// Newest version of `packed_oid` with commit_ts <= `ts`. Returns false
  /// when the snapshot predates every version (read the base value).
  bool ReadVisible(uint64_t packed_oid, uint64_t ts, int32_t* value) const;

  /// First-committer-wins commit of one update transaction that began at
  /// `begin_ts`: if any target already carries a version newer than
  /// begin_ts, fails with Status::Aborted (caller retries from a fresh
  /// timestamp). Otherwise logs the commit (when a Wal is attached; the
  /// sync is the commit point and can crash), installs one version per
  /// target, publishes the new clock, and returns the commit timestamp.
  Status CommitUpdate(uint64_t begin_ts,
                      const std::vector<uint64_t>& targets, int32_t new_value,
                      uint64_t* commit_ts);

  /// Everything a quiescent fold needs: the newest committed version per
  /// chain plus the WAL txn ids awaiting their deferred kApplied. Clears
  /// all chains. Caller must guarantee no concurrent snapshots or commits.
  struct Folded {
    std::vector<std::pair<uint64_t, int32_t>> newest;  // packed oid, value
    std::vector<uint64_t> wal_txns;
  };
  Folded TakeCommittedForFold();

  /// Interval GC against the active snapshot set (see header comment).
  /// Runs automatically every kGcInterval commits; callable directly.
  void RunGc();

  /// Drops every chain and pending WAL txn and restores the clock —
  /// recovery's reset, after the redo records were re-applied to base.
  void ResetForRecovery(uint64_t restored_clock);

  MvccStats stats() const;
  uint64_t live_versions() const {
    return live_versions_.load(std::memory_order_relaxed);
  }

  /// Commits between automatic GC passes.
  static constexpr uint64_t kGcInterval = 128;

 private:
  struct Version {
    uint64_t ts = 0;
    int32_t value = 0;
  };
  struct ChainShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Version>> chains;
  };
  static constexpr size_t kChainShards = 16;

  ChainShard& ShardFor(uint64_t packed_oid) {
    return shards_[(packed_oid * 0x9e3779b97f4a7c15ULL) >> 60];
  }
  const ChainShard& ShardFor(uint64_t packed_oid) const {
    return shards_[(packed_oid * 0x9e3779b97f4a7c15ULL) >> 60];
  }
  void ReleaseSnapshot(uint64_t ts);
  /// The interval-pruning pass; commit_mu_ must be held.
  void GcLocked();

  Wal* wal_;
  std::atomic<uint64_t> clock_{0};
  std::array<ChainShard, kChainShards> shards_;

  std::mutex commit_mu_;  ///< serializes CommitUpdate + fold + GC
  std::vector<uint64_t> pending_wal_txns_;  // guarded by commit_mu_
  uint64_t commits_since_gc_ = 0;           // guarded by commit_mu_

  mutable std::mutex snaps_mu_;
  std::map<uint64_t, uint32_t> active_;  ///< snapshot ts -> refcount

  std::atomic<uint64_t> live_versions_{0};
  // Children of the registry's mvcc.* counters (DESIGN.md §11).
  Counter commits_{MetricsRegistry::Global().GetCounter("mvcc.commits")};
  Counter conflicts_{MetricsRegistry::Global().GetCounter("mvcc.conflicts")};
  Counter reclaimed_{
      MetricsRegistry::Global().GetCounter("mvcc.versions_reclaimed")};
  Counter gc_runs_{MetricsRegistry::Global().GetCounter("mvcc.gc_runs")};
};

}  // namespace objrep

#endif  // OBJREP_MVCC_VERSION_STORE_H_
