#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/macros.h"

namespace objrep {

Counter::Counter(Counter* parent) : parent_(parent) {
  OBJREP_CHECK_MSG(parent->parent_ == nullptr, "a child has no children");
  std::lock_guard<std::mutex> l(parent->family_->mu);
  parent->family_->children.push_back(this);
}

Counter::~Counter() {
  if (parent_ == nullptr) {
    OBJREP_CHECK_MSG(family_->children.empty(),
                     "a root outlives its children");
    return;
  }
  std::lock_guard<std::mutex> l(parent_->family_->mu);
  parent_->v_.fetch_add(v_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  auto& siblings = parent_->family_->children;
  siblings.erase(std::find(siblings.begin(), siblings.end(), this));
}

uint64_t Counter::RootValue() const {
  std::lock_guard<std::mutex> l(family_->mu);
  uint64_t v = v_.load(std::memory_order_relaxed);
  for (const Counter* child : family_->children) {
    v += child->v_.load(std::memory_order_relaxed);
  }
  return v;
}

void Counter::Reset() {
  OBJREP_CHECK_MSG(parent_ != nullptr, "only a child counter resets");
  std::lock_guard<std::mutex> l(parent_->family_->mu);
  parent_->v_.fetch_add(v_.exchange(0, std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  uint64_t omax = other.max_.load(std::memory_order_relaxed);
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (omax > cur &&
         !max_.compare_exchange_weak(cur, omax, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  uint64_t buckets[kNumBuckets];
  for (size_t i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  // Percentile q: the bucket holding the ceil(q * count)-th sample, reported
  // as that bucket's upper edge clamped to the observed max.
  auto percentile = [&](double q) -> uint64_t {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(s.count));
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets[i];
      if (seen >= rank) {
        uint64_t edge = BucketUpperEdge(i);
        return edge < s.max ? edge : s.max;
      }
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> l(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    Histogram::Snapshot s = h->TakeSnapshot();
    os << "\"" << name << "\":{\"count\":" << s.count << ",\"sum\":" << s.sum
       << ",\"max\":" << s.max << ",\"p50\":" << s.p50
       << ",\"p90\":" << s.p90 << ",\"p99\":" << s.p99 << "}";
  }
  os << "}}";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream oss;
  WriteJson(oss);
  return oss.str();
}

}  // namespace objrep
