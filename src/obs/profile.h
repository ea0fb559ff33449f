// Per-request profiles: EXPLAIN ANALYZE for one served request
// (DESIGN.md §16).
//
// A RetrieveProfile aggregates everything one request did: wall time,
// per-tag physical I/O (exact — fed by the thread-local per-tag counters
// that DiskManager bumps at the same sites as the volume counters),
// object-cache hits/misses, lock-wait and MVCC commit-retry wait, the
// adaptive planner's choice, and per-shard timing/IO. The shard layer can
// report per-shard slices because every shard sub-query runs wholly on one
// thread, so bracketing it with thread-local snapshots attributes its I/O
// exactly. Scatter-gather runs sub-queries concurrently on helper threads:
// each helper reports into its own collector, billing its whole-task I/O
// and cache traffic there, and the request thread Merge()s it after the
// join — so ObjService adds its own thread's delta on top, and the
// whole-request I/O still equals the sum of the shard slices.
//
// Collection is pull-free: ObjService installs a ProfileCollector in a
// thread-local for the duration of one request (when the client set the
// PROFILE flag, or whenever the slow-query ring is armed), and the shard /
// adaptive / lock layers report into it if — and only if — one is
// installed. With no collector installed each hook is a single
// thread-local load, so the un-profiled hot path stays flat.
//
// The SlowQueryRing keeps the last kSlowRingCapacity profiles whose total
// latency crossed a threshold — the flight recorder the STATS verb
// exposes, so a slow request that already happened can still be explained.
#ifndef OBJREP_OBS_PROFILE_H_
#define OBJREP_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/io_context.h"

namespace objrep {

/// One shard sub-query's slice of a request.
struct ShardProfile {
  uint32_t shard = 0;
  uint64_t us = 0;
  IoTagBreakdown io;
};

/// Everything one request did, serializable as one JSON object.
struct RetrieveProfile {
  uint64_t trace_id = 0;
  const char* verb = "retrieve";  // static string ("retrieve" / "update")
  uint64_t total_us = 0;
  uint64_t lock_wait_us = 0;    // 2PL acquisition wait
  uint64_t commit_wait_us = 0;  // MVCC FCW retry wait
  int64_t plan = -1;            // adaptive plan choice (StrategyKind), -1 = fixed
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t rows = 0;  // subobjects returned
  IoTagBreakdown io;  // whole-request per-tag physical I/O
  std::vector<ShardProfile> shards;  // empty on an unsharded engine

  std::string ToJson() const;
};

/// Thread-local collection point for the request this thread is executing.
class ProfileCollector {
 public:
  /// The collector installed on this thread, or nullptr (the common case).
  static ProfileCollector* Current();

  /// RAII installer: makes `c` the thread's collector, restores the
  /// previous one on destruction (nesting is legal but unused).
  class Scope {
   public:
    explicit Scope(ProfileCollector* c);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ProfileCollector* prev_;
  };

  /// Accumulates one shard sub-query's slice. Scatter-gather decomposes
  /// a range into many per-shard sub-queries, so slices for the same
  /// shard merge — the profile reports one entry per shard, not one per
  /// sub-range.
  void AddShard(uint32_t shard, uint64_t us, const IoTagBreakdown& io) {
    for (ShardProfile& s : profile.shards) {
      if (s.shard == shard) {
        s.us += us;
        s.io += io;
        return;
      }
    }
    profile.shards.push_back(ShardProfile{shard, us, io});
  }
  /// Folds in the collector a helper thread filled for this request: its
  /// shard slices, lock and commit waits and plan, plus its whole-task
  /// I/O and cache hits/misses (`helper.io`, `helper.cache_*`), which
  /// this request's thread-local counters never see.
  void Merge(const RetrieveProfile& helper);
  void SetPlan(int64_t plan) { profile.plan = plan; }
  void AddLockWait(uint64_t us) { profile.lock_wait_us += us; }
  void AddCommitWait(uint64_t us) { profile.commit_wait_us += us; }

  RetrieveProfile profile;
};

/// Bounded ring of recent slow-request profiles, exposed through STATS.
class SlowQueryRing {
 public:
  static constexpr size_t kSlowRingCapacity = 32;

  static SlowQueryRing& Global();

  /// Requests at or above this total latency are captured; 0 disarms the
  /// ring (and ObjService stops installing collectors for it).
  void set_threshold_us(uint64_t us) {
    threshold_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  bool armed() const { return threshold_us() != 0; }

  /// Captures `p` if the ring is armed and p.total_us clears the bar.
  void MaybeRecord(const RetrieveProfile& p);

  /// JSON array of captured profiles, oldest first.
  std::string ToJson() const;

  uint64_t captured() const {
    return captured_.load(std::memory_order_relaxed);
  }
  void Clear();

 private:
  std::atomic<uint64_t> threshold_us_{0};
  std::atomic<uint64_t> captured_{0};  // total ever captured (ring drops old)
  mutable std::mutex mu_;
  std::deque<std::string> entries_;  // pre-serialized profiles
};

}  // namespace objrep

#endif  // OBJREP_OBS_PROFILE_H_
