// Process-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms (DESIGN.md §11).
//
// Hot-path cost model: callers look a metric up ONCE (mutex-guarded map)
// and cache the returned pointer — after that every update is a single
// relaxed atomic RMW, safe from any thread. Histograms use 64 log2 buckets
// of relaxed atomics; percentiles are computed at snapshot time from the
// bucket counts (reported as the bucket's upper edge, clamped to the
// observed max), and shards recorded on separate Histogram instances can be
// combined with Merge().
//
// A component that keeps its own count of an event (a pool's hits, a
// volume's reads) holds it as a child Counter of the registry's counter
// for that event, so the event is counted once: the component reads and
// resets its child for per-run deltas, and the registry reads the sum.
// Registry metrics are cumulative and monotonic for the life of the
// process (gauges except — they track a level).
#ifndef OBJREP_OBS_METRICS_H_
#define OBJREP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace objrep {

/// Event count. A root counter (every registry entry) is monotonic; a
/// child of a root is one component's share of the root's event. A root's
/// value() is its own count plus the counts of its live children. A child
/// that is Reset() or destroyed first folds its count into the root, so the
/// root never decreases. The root must outlive its children (Global()'s
/// counters live for the whole process); a child has no children.
class Counter {
 public:
  /// A root.
  Counter() : family_(std::make_unique<Family>()) {}
  /// A child of the root `parent`.
  explicit Counter(Counter* parent);
  ~Counter();

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const {
    if (parent_ != nullptr) return v_.load(std::memory_order_relaxed);
    return RootValue();
  }
  /// Child only: zeroes the count, folding it into the parent.
  void Reset();

 private:
  /// A root's live children, and the mutex that orders every fold into the
  /// root against RootValue(). Kept out of line so a child (a component's
  /// hot counter) stays three words.
  struct Family {
    std::mutex mu;
    std::vector<const Counter*> children;
  };
  uint64_t RootValue() const;

  std::atomic<uint64_t> v_{0};
  Counter* const parent_ = nullptr;
  const std::unique_ptr<Family> family_;  // roots only
};

/// `N` children of `parent`, e.g. one per IoTag.
template <size_t N>
std::array<Counter, N> ChildCounters(Counter* parent) {
  return [parent]<size_t... I>(std::index_sequence<I...>) {
    return std::array<Counter, N>{{(static_cast<void>(I), Counter(parent))...}};
  }(std::make_index_sequence<N>());
}

/// Instantaneous level (queue depth, pinned frames). May go up and down.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log2-bucketed histogram of non-negative integer samples (latencies in
/// microseconds, sizes in pages). Bucket i >= 1 holds values in
/// [2^(i-1), 2^i - 1]; bucket 0 holds the value 0. Recording is one relaxed
/// fetch_add per of {bucket, count, sum} plus a CAS loop for max.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p90 = 0;
    uint64_t p99 = 0;
    double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
  };

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Adds `other`'s samples into this histogram (per-thread shard merge).
  /// `other` must be quiescent for the merge to be exact.
  void Merge(const Histogram& other);

  /// Consistent-enough view for reporting: exact once recording threads are
  /// quiescent; during recording, counts may trail by in-flight samples.
  Snapshot TakeSnapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Bucket index for a sample: 0 for 0, else 64 - countl_zero(v).
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v > 0) {
      ++b;
      v >>= 1;
    }
    return b < kNumBuckets ? b : kNumBuckets - 1;
  }
  /// Largest value bucket i reports (the percentile estimate for samples
  /// landing there).
  static uint64_t BucketUpperEdge(size_t i) {
    if (i == 0) return 0;
    if (i >= kNumBuckets - 1) return UINT64_MAX;
    return (uint64_t{1} << i) - 1;
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Name -> metric map. One process-wide instance (Global()); tests may
/// build private instances. Returned pointers are stable for the registry's
/// lifetime — cache them.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count","sum","max","p50","p90","p99"}}}. Keys sorted (std::map).
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace objrep

#endif  // OBJREP_OBS_METRICS_H_
