#include "obs/profile.h"

#include <cstdio>

namespace objrep {

namespace {

ProfileCollector*& CurrentCollectorRef() {
  thread_local ProfileCollector* collector = nullptr;
  return collector;
}

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  *out += buf;
}

/// {"total_reads":…,"total_writes":…,"tags":{"parent_scan":{"reads":…,
/// "writes":…},…}} — only tags with nonzero traffic appear, and the tag
/// entries sum exactly to the totals (same invariant as the volume
/// breakdown).
void AppendIoJson(std::string* out, const IoTagBreakdown& io) {
  *out += "{";
  AppendU64(out, "total_reads", io.total_reads());
  *out += ",";
  AppendU64(out, "total_writes", io.total_writes());
  *out += ",\"tags\":{";
  bool first = true;
  for (size_t i = 0; i < kNumIoTags; ++i) {
    if (io.reads[i] == 0 && io.writes[i] == 0) continue;
    if (!first) *out += ",";
    first = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"%s\":{\"reads\":%llu,\"writes\":%llu}",
                  IoTagName(static_cast<IoTag>(i)),
                  static_cast<unsigned long long>(io.reads[i]),
                  static_cast<unsigned long long>(io.writes[i]));
    *out += buf;
  }
  *out += "}}";
}

}  // namespace

std::string RetrieveProfile::ToJson() const {
  std::string out = "{";
  AppendU64(&out, "trace_id", trace_id);
  out += ",\"verb\":\"";
  out += verb;
  out += "\",";
  AppendU64(&out, "total_us", total_us);
  out += ",";
  AppendU64(&out, "lock_wait_us", lock_wait_us);
  out += ",";
  AppendU64(&out, "commit_wait_us", commit_wait_us);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"plan\":%lld",
                static_cast<long long>(plan));
  out += buf;
  out += ",";
  AppendU64(&out, "cache_hits", cache_hits);
  out += ",";
  AppendU64(&out, "cache_misses", cache_misses);
  out += ",";
  AppendU64(&out, "rows", rows);
  out += ",\"io\":";
  AppendIoJson(&out, io);
  out += ",\"shards\":[";
  bool first = true;
  for (const ShardProfile& s : shards) {
    if (!first) out += ",";
    first = false;
    out += "{";
    AppendU64(&out, "shard", s.shard);
    out += ",";
    AppendU64(&out, "us", s.us);
    out += ",\"io\":";
    AppendIoJson(&out, s.io);
    out += "}";
  }
  out += "]}";
  return out;
}

ProfileCollector* ProfileCollector::Current() {
  return CurrentCollectorRef();
}

void ProfileCollector::Merge(const RetrieveProfile& helper) {
  for (const ShardProfile& s : helper.shards) AddShard(s.shard, s.us, s.io);
  profile.lock_wait_us += helper.lock_wait_us;
  profile.commit_wait_us += helper.commit_wait_us;
  if (helper.plan >= 0) profile.plan = helper.plan;
  profile.io += helper.io;
  profile.cache_hits += helper.cache_hits;
  profile.cache_misses += helper.cache_misses;
}

ProfileCollector::Scope::Scope(ProfileCollector* c)
    : prev_(CurrentCollectorRef()) {
  CurrentCollectorRef() = c;
}

ProfileCollector::Scope::~Scope() { CurrentCollectorRef() = prev_; }

SlowQueryRing& SlowQueryRing::Global() {
  static SlowQueryRing* r = new SlowQueryRing();
  return *r;
}

void SlowQueryRing::MaybeRecord(const RetrieveProfile& p) {
  const uint64_t bar = threshold_us();
  if (bar == 0 || p.total_us < bar) return;
  std::string json = p.ToJson();
  std::lock_guard<std::mutex> guard(mu_);
  if (entries_.size() >= kSlowRingCapacity) entries_.pop_front();
  entries_.push_back(std::move(json));
  captured_.fetch_add(1, std::memory_order_relaxed);
}

std::string SlowQueryRing::ToJson() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out = "[";
  bool first = true;
  for (const std::string& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += e;
  }
  out += "]";
  return out;
}

void SlowQueryRing::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  entries_.clear();
  captured_.store(0, std::memory_order_relaxed);
}

}  // namespace objrep
