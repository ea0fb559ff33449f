// Outside cache of materialized units (paper §3.2).
//
// The Cache relation is a hash file keyed on `hashkey`, "a function of the
// concatenation of the OID's in that unit". Because the hashkey identifies
// the unit's OID list, two objects referencing the same unit share one
// cache entry — that is what makes the caching "outside".
//
// Invalidation follows the paper's I-lock scheme: each subobject holds an
// invalidation lock for every cached unit it belongs to; an update to the
// subobject invalidates (deletes) those units. The paper stores I-locks
// with the subobjects themselves — the page an update already touches — so
// reading the locks costs no extra I/O; we keep the same information in a
// memory-resident lock table and charge only the hash-relation deletes,
// preserving the cost model (DESIGN.md §5.6).
//
// Under the concurrent execution engine the I-locks are real cross-thread
// invalidation: every cache operation (probe, fetch, insert, invalidate)
// runs under one internal latch, so an updater's InvalidateSubobject is
// atomic with respect to a concurrent retriever's probe-fetch or
// materialize-insert. Combined with the exec-layer table locks (a
// retriever holds S on the child relations for its whole query, an updater
// holds X), no stale unit can be re-inserted after its invalidation.
// Latch order: table locks -> cache latch -> buffer-pool latches.
//
// The directory of cached hashkeys (at most SizeCache = 1000 entries) is
// likewise memory-resident: strategies may *test* residency for free, but
// fetching, inserting, or invalidating unit values costs hash-file I/O.
#ifndef OBJREP_OBJSTORE_CACHE_MANAGER_H_
#define OBJREP_OBJSTORE_CACHE_MANAGER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "access/hash_file.h"
#include "objstore/oid.h"
#include "objstore/spec.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace objrep {

class CacheManager {
 public:
  struct CacheStats {
    uint64_t hits = 0;          ///< FetchUnit calls that found the unit
    uint64_t misses = 0;        ///< IsCached probes that answered "no"
    uint64_t inserts = 0;
    uint64_t evictions = 0;     ///< LRU evictions (kEvictLru)
    uint64_t rejections = 0;    ///< inserts dropped (kRejectWhenFull)
    uint64_t invalidated_units = 0;
  };

  CacheManager(BufferPool* pool, uint32_t size_cache_units,
               uint32_t num_buckets, CacheAdmission admission);

  /// Creates the on-disk hash relation. Must be called once before use.
  Status Init();

  /// Record encoding held in a cached unit's value blob. Strategies that
  /// assemble units from the child relations (DFSCACHE, SMART) cache raw
  /// child-relation records; DFSCLUST+CACHE caches ClusterRel records.
  /// The two encodings are mutually unreadable — projecting one with the
  /// other's schema yields garbage values, not an error — so the format
  /// is part of the unit's cache identity: the same unit cached in both
  /// formats occupies two entries, and a strategy can never fetch a blob
  /// it cannot decode. Invalidation is unaffected (I-locks are per
  /// inserted hashkey, so an update drops both formats' entries).
  enum class BlobFormat : uint64_t {
    kChildRecords = 0,
    kClusterRecords = 0x9e3779b97f4a7c15ULL,  // odd salt, full avalanche
  };

  /// Unit identity: hash of the packed, as-stored OID list, salted by the
  /// blob format the caller stores/expects.
  static uint64_t HashKeyOf(const std::vector<Oid>& unit_oids,
                            BlobFormat format = BlobFormat::kChildRecords);

  /// Free residency test against the in-memory directory (counts a miss
  /// when absent). Does not touch the LRU order.
  bool IsCached(uint64_t hashkey);

  /// Reads the unit's value blob from the Cache relation (hash-file I/O);
  /// refreshes LRU recency. NotFound if not cached.
  Status FetchUnit(uint64_t hashkey, std::string* blob);

  /// Atomic IsCached + FetchUnit: one directory-lock hold, so a concurrent
  /// insert's eviction cannot turn a positive residency probe into a
  /// NotFound (`*found = false` is the miss answer, not an error). Counts
  /// a hit or a miss accordingly. Strategies under the concurrent engine
  /// must use this instead of the check-then-fetch pair.
  Status TryFetchUnit(uint64_t hashkey, std::string* blob, bool* found);

  /// Inserts a freshly materialized unit, evicting or rejecting per the
  /// admission policy, and registers I-locks on its subobjects.
  Status InsertUnit(uint64_t hashkey, const std::vector<Oid>& unit_oids,
                    std::string_view blob);

  /// Update hook: invalidates every cached unit holding an I-lock of `oid`
  /// (each invalidation is a hash-relation delete, which costs I/O).
  Status InvalidateSubobject(const Oid& oid);

  /// Crash recovery: the cache is soft state (DESIGN.md §10). Frees the
  /// old hash relation's pages, re-creates it empty, and clears the
  /// directory, LRU, and I-lock table. Call after the pool was emptied
  /// and the WAL redone.
  Status ResetForRecovery();

  /// Structural consistency check for tests: directory, LRU, I-lock
  /// table, and hash relation must all describe the same set of units.
  /// Costs hash-file I/O (one Contains per cached unit).
  Status CheckInvariants();

  uint32_t size() const {
    std::lock_guard<std::mutex> l(mu_);
    return static_cast<uint32_t>(dir_.size());
  }
  uint32_t capacity() const { return size_cache_; }
  CacheStats stats() const {
    std::lock_guard<std::mutex> l(mu_);
    return CacheStats{hits_.value(), misses_.value(), inserts_.value(),
                      evictions_, rejections_, invalidated_.value()};
  }
  void ResetStats() {
    std::lock_guard<std::mutex> l(mu_);
    ResetStatsLocked();
  }
  const HashFile& hash_file() const { return hash_; }

 private:
  /// Memory-only removal: directory, LRU, members, I-locks. Caller holds
  /// mu_ and has already deleted (or is abandoning) the hash entry. Kept
  /// separate from the hash I/O so mutations can be ordered I/O-first:
  /// an aborted transaction then leaves the memory directory untouched
  /// and consistent with the rolled-back hash relation.
  void ForgetUnitLocked(uint64_t hashkey);
  /// Zeroes stats(); caller holds mu_.
  void ResetStatsLocked();

  /// Serializes every cache operation: directory, LRU, I-lock table, and
  /// the hash-relation I/O they imply. Held across buffer-pool calls
  /// (latch order: cache latch before pool latches, never the reverse).
  mutable std::mutex mu_;

  BufferPool* pool_;
  uint32_t size_cache_;
  uint32_t num_buckets_;
  CacheAdmission admission_;
  HashFile hash_;

  // LRU order (front = coldest) and directory hashkey -> LRU position.
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> dir_;
  // hashkey -> member OIDs (needed to release I-locks on removal).
  std::unordered_map<uint64_t, std::vector<uint64_t>> unit_members_;
  // packed subobject OID -> hashkeys of cached units holding an I-lock.
  std::unordered_map<uint64_t, std::vector<uint64_t>> lock_table_;

  // The CacheStats counts, guarded by mu_. Those with a process-wide
  // metric are children of the registry's cache.* counters (DESIGN.md §11).
  Counter hits_{MetricsRegistry::Global().GetCounter("cache.hits")};
  Counter misses_{MetricsRegistry::Global().GetCounter("cache.misses")};
  Counter inserts_{MetricsRegistry::Global().GetCounter("cache.inserts")};
  Counter invalidated_{
      MetricsRegistry::Global().GetCounter("cache.invalidated_units")};
  uint64_t evictions_ = 0;
  uint64_t rejections_ = 0;
};

}  // namespace objrep

#endif  // OBJREP_OBJSTORE_CACHE_MANAGER_H_
