#include "objstore/cache_manager.h"

#include <algorithm>

#include "obs/io_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/macros.h"

namespace objrep {

namespace {

// Registry-only metrics (DESIGN.md §11): I-locks have no per-cache count.
struct CacheMetrics {
  Counter* ilocks = MetricsRegistry::Global().GetCounter("cache.ilocks");
};

CacheMetrics& Metrics() {
  static CacheMetrics* m = new CacheMetrics();
  return *m;
}

}  // namespace

CacheManager::CacheManager(BufferPool* pool, uint32_t size_cache_units,
                           uint32_t num_buckets, CacheAdmission admission)
    : pool_(pool),
      size_cache_(size_cache_units),
      num_buckets_(num_buckets),
      admission_(admission) {}

Status CacheManager::Init() {
  // Building the cache's hash relation is maintenance traffic.
  ScopedIoTag tag(IoTag::kCacheMaint);
  return HashFile::Create(pool_, num_buckets_, &hash_);
}

uint64_t CacheManager::HashKeyOf(const std::vector<Oid>& unit_oids,
                                 BlobFormat format) {
  // Hash of the concatenation of the OIDs as stored in the object — the
  // paper's definition. (Not sorted: the stored order identifies the unit.)
  // The format salt keeps incompatibly-encoded blobs of the same unit in
  // disjoint key spaces (see BlobFormat in the header).
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(format);
  for (const Oid& oid : unit_oids) {
    h = HashCombine(h, oid.Packed());
  }
  return h;
}

bool CacheManager::IsCached(uint64_t hashkey) {
  std::lock_guard<std::mutex> l(mu_);
  bool cached = dir_.find(hashkey) != dir_.end();
  if (!cached) {
    misses_.Add();
    ++CurrentIoThreadState().cache_misses;
  }
  return cached;
}

Status CacheManager::FetchUnit(uint64_t hashkey, std::string* blob) {
  // Hit-path hash-relation reads are the cache paying for itself.
  ScopedIoTag tag(IoTag::kCacheFetch);
  std::lock_guard<std::mutex> l(mu_);
  auto it = dir_.find(hashkey);
  if (it == dir_.end()) {
    misses_.Add();
    ++CurrentIoThreadState().cache_misses;
    return Status::NotFound("unit not cached");
  }
  OBJREP_RETURN_NOT_OK(hash_.Lookup(hashkey, blob));
  // Refresh recency.
  lru_.erase(it->second);
  lru_.push_back(hashkey);
  it->second = std::prev(lru_.end());
  hits_.Add();
  ++CurrentIoThreadState().cache_hits;
  return Status::OK();
}

Status CacheManager::TryFetchUnit(uint64_t hashkey, std::string* blob,
                                  bool* found) {
  ScopedIoTag tag(IoTag::kCacheFetch);
  std::lock_guard<std::mutex> l(mu_);
  auto it = dir_.find(hashkey);
  if (it == dir_.end()) {
    *found = false;
    misses_.Add();
    ++CurrentIoThreadState().cache_misses;
    return Status::OK();
  }
  OBJREP_RETURN_NOT_OK(hash_.Lookup(hashkey, blob));
  lru_.erase(it->second);
  lru_.push_back(hashkey);
  it->second = std::prev(lru_.end());
  *found = true;
  hits_.Add();
  ++CurrentIoThreadState().cache_hits;
  return Status::OK();
}

void CacheManager::ForgetUnitLocked(uint64_t hashkey) {
  auto it = dir_.find(hashkey);
  OBJREP_CHECK(it != dir_.end());
  lru_.erase(it->second);
  dir_.erase(it);
  auto mem_it = unit_members_.find(hashkey);
  OBJREP_CHECK(mem_it != unit_members_.end());
  for (uint64_t packed : mem_it->second) {
    auto lt = lock_table_.find(packed);
    if (lt == lock_table_.end()) continue;
    auto& held = lt->second;
    held.erase(std::remove(held.begin(), held.end(), hashkey), held.end());
    if (held.empty()) lock_table_.erase(lt);
  }
  unit_members_.erase(mem_it);
}

void CacheManager::ResetStatsLocked() {
  for (Counter* c : {&hits_, &misses_, &inserts_, &invalidated_}) c->Reset();
  evictions_ = 0;
  rejections_ = 0;
}

Status CacheManager::InsertUnit(uint64_t hashkey,
                                const std::vector<Oid>& unit_oids,
                                std::string_view blob) {
  // A unit install touches multiple hash-relation pages (a possible
  // eviction's delete, the insert, maybe a fresh overflow page): one WAL
  // transaction. Order matters for latches (wal_mu_ before the cache
  // latch, same as an update query's runner-level transaction) and for
  // abort safety (all hash I/O before any memory mutation, so a failed
  // transaction leaves directory and hash relation agreeing).
  // Everything an install touches — victim delete, insert, overflow-page
  // allocation, and the commit's deferred write-backs via dirty_tag — is
  // cache maintenance, the DFSCACHE overhead the paper charges (§6).
  ScopedIoTag tag(IoTag::kCacheMaint);
  OBJREP_RETURN_NOT_OK(pool_->BeginTxn());
  std::lock_guard<std::mutex> l(mu_);
  Status s = [&]() -> Status {
    if (dir_.find(hashkey) != dir_.end()) {
      return Status::OK();  // outside cache: already present, shared entry
    }
    uint64_t victim = 0;
    bool have_victim = false;
    if (dir_.size() >= size_cache_) {
      if (admission_ == CacheAdmission::kRejectWhenFull) {
        ++rejections_;
        return Status::OK();
      }
      // Evict the least recently used unit.
      OBJREP_CHECK(!lru_.empty());
      victim = lru_.front();
      have_victim = true;
    }
    if (have_victim) {
      OBJREP_RETURN_NOT_OK(hash_.Delete(victim));
    }
    OBJREP_RETURN_NOT_OK(
        pool_->disk()->fault_injector()->MaybeCrash("cache.install.mid"));
    OBJREP_RETURN_NOT_OK(hash_.Insert(hashkey, blob));
    // All I/O done; the memory structures below cannot fail.
    if (have_victim) {
      ForgetUnitLocked(victim);
      ++evictions_;
    }
    lru_.push_back(hashkey);
    dir_[hashkey] = std::prev(lru_.end());
    auto& members = unit_members_[hashkey];
    members.reserve(unit_oids.size());
    for (const Oid& oid : unit_oids) {
      members.push_back(oid.Packed());
      lock_table_[oid.Packed()].push_back(hashkey);
    }
    Metrics().ilocks->Add(unit_oids.size());
    inserts_.Add();
    return Status::OK();
  }();
  if (s.ok()) {
    s = pool_->CommitTxn();
  } else {
    pool_->AbortTxn();
  }
  return s;
}

Status CacheManager::InvalidateSubobject(const Oid& oid) {
  // Inside an update query this joins the runner-level transaction
  // (reentrant BeginTxn); on its own (tests) it is one transaction.
  ScopedIoTag tag(IoTag::kCacheMaint);
  OBJREP_RETURN_NOT_OK(pool_->BeginTxn());
  std::lock_guard<std::mutex> l(mu_);
  Status s = [&]() -> Status {
    auto it = lock_table_.find(oid.Packed());
    if (it == lock_table_.end()) return Status::OK();
    // The forget pass mutates the lock table; work from a copy.
    std::vector<uint64_t> held = it->second;
    FaultInjector* fi = pool_->disk()->fault_injector();
    for (uint64_t hashkey : held) {
      OBJREP_RETURN_NOT_OK(hash_.Delete(hashkey));
      OBJREP_RETURN_NOT_OK(fi->MaybeCrash("cache.invalidate.mid"));
    }
    for (uint64_t hashkey : held) ForgetUnitLocked(hashkey);
    invalidated_.Add(held.size());
    Trace::Instant("ilock_invalidate", "cache", "units", held.size());
    return Status::OK();
  }();
  if (s.ok()) {
    s = pool_->CommitTxn();
  } else {
    pool_->AbortTxn();
  }
  return s;
}

Status CacheManager::ResetForRecovery() {
  ScopedIoTag tag(IoTag::kCacheMaint);
  std::lock_guard<std::mutex> l(mu_);
  OBJREP_RETURN_NOT_OK(hash_.Destroy());
  OBJREP_RETURN_NOT_OK(HashFile::Create(pool_, num_buckets_, &hash_));
  lru_.clear();
  dir_.clear();
  unit_members_.clear();
  lock_table_.clear();
  ResetStatsLocked();
  return Status::OK();
}

Status CacheManager::CheckInvariants() {
  std::lock_guard<std::mutex> l(mu_);
  if (dir_.size() != lru_.size()) {
    return Status::Internal("cache directory and LRU disagree");
  }
  if (dir_.size() != unit_members_.size()) {
    return Status::Internal("cache directory and member table disagree");
  }
  if (hash_.num_entries() != dir_.size()) {
    return Status::Internal("cache directory and hash relation disagree");
  }
  for (const auto& [packed, held] : lock_table_) {
    (void)packed;
    if (held.empty()) return Status::Internal("empty I-lock list");
    for (uint64_t hk : held) {
      if (dir_.find(hk) == dir_.end()) {
        return Status::Internal("I-lock on uncached unit");
      }
    }
  }
  for (const auto& [hk, members] : unit_members_) {
    for (uint64_t packed : members) {
      auto lt = lock_table_.find(packed);
      if (lt == lock_table_.end() ||
          std::find(lt->second.begin(), lt->second.end(), hk) ==
              lt->second.end()) {
        return Status::Internal("cached unit member missing its I-lock");
      }
    }
    bool found = false;
    OBJREP_RETURN_NOT_OK(hash_.Contains(hk, &found));
    if (!found) {
      return Status::Internal("cached unit missing from hash relation");
    }
  }
  return Status::OK();
}

}  // namespace objrep
