// Metrics registry correctness (DESIGN.md §11): counter monotonicity under
// threads, child counters folding into their parent, histogram bucket
// boundaries, percentile estimation on skewed data, shard merging, registry
// lookup hammered from 8 threads (the TSan job runs this binary), and the
// registry's pool and disk counters summing every instance's own counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace objrep {
namespace {

TEST(CounterTest, ParentIsOwnCountPlusLiveChildren) {
  Counter parent;
  parent.Add(5);
  Counter a(&parent);
  Counter b(&parent);
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(parent.value(), 12u);
  parent.Add(1);
  EXPECT_EQ(parent.value(), 13u);
}

TEST(CounterTest, ResetAndDestructionFoldIntoParent) {
  Counter parent;
  Counter a(&parent);
  a.Add(7);
  {
    Counter b(&parent);
    b.Add(2);
    EXPECT_EQ(parent.value(), 9u);
  }
  // b's count outlives b.
  EXPECT_EQ(parent.value(), 9u);
  a.Reset();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(parent.value(), 9u);
  a.Add(1);
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(parent.value(), 10u);
}

TEST(CounterTest, ConcurrentChildAddsSumExactly) {
  // 8 writers spread over 4 children while one thread keeps resetting them
  // and another reads the parent: no add is lost or counted twice, and the
  // parent never decreases.
  Counter parent;
  constexpr int kThreads = 8;
  constexpr int kChildren = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::unique_ptr<Counter>> children;
  for (int i = 0; i < kChildren; ++i) {
    children.push_back(std::make_unique<Counter>(&parent));
  }
  std::atomic<bool> done{false};
  std::atomic<bool> decreased{false};
  std::thread resetter([&] {
    while (!done.load()) {
      for (auto& c : children) c->Reset();
    }
  });
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      uint64_t v = parent.value();
      if (v < last) decreased.store(true);
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&children, t] {
      Counter* c = children[t % kChildren].get();
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  resetter.join();
  reader.join();
  EXPECT_FALSE(decreased.load());
  EXPECT_EQ(parent.value(), kThreads * kPerThread);
  children.clear();
  EXPECT_EQ(parent.value(), kThreads * kPerThread);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, TracksLevel) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(7);
  EXPECT_EQ(g.value(), 8);
  g.Sub(20);
  EXPECT_EQ(g.value(), -12);  // gauges may go negative (it's a level)
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket i >= 1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(7), 3u);
  EXPECT_EQ(Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperEdge(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperEdge(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperEdge(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperEdge(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperEdge(Histogram::kNumBuckets - 1),
            UINT64_MAX);

  // Round trip: every bucket's upper edge maps back into that bucket.
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketUpperEdge(i)), i) << i;
  }
}

TEST(HistogramTest, SnapshotBasics) {
  Histogram h;
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
  h.Record(0);
  h.Record(1);
  h.Record(100);
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 101u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 101.0 / 3.0);
  // All percentiles clamp to the observed max.
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(HistogramTest, P99OnSkewedDistribution) {
  // 90 fast samples (1us) and 10 slow (1000us): p50 is fast, p99 must land
  // in the slow bucket and clamp to the observed max.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 1u);
  EXPECT_EQ(s.p99, 1000u);  // bucket edge 1023 clamped to max 1000
  EXPECT_EQ(s.max, 1000u);

  // With only 1 slow in 100, rank 99 still falls in the fast bucket.
  Histogram h2;
  for (int i = 0; i < 99; ++i) h2.Record(1);
  h2.Record(1000);
  EXPECT_EQ(h2.TakeSnapshot().p99, 1u);
  EXPECT_EQ(h2.TakeSnapshot().max, 1000u);
}

TEST(HistogramTest, PercentileIsBucketUpperEdge) {
  // 100 samples spread through [512, 1023] all land in bucket 10; every
  // percentile reports that bucket's upper edge clamped to the max sample.
  Histogram h;
  for (uint64_t v = 512; v < 612; ++v) h.Record(v);
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.p50, 611u);  // edge 1023 clamped to max 611
  EXPECT_EQ(s.p99, 611u);
}

TEST(HistogramTest, MergeCombinesShards) {
  // Per-thread shards merged into one must agree with a histogram that
  // saw every sample directly.
  Histogram a, b, direct;
  for (uint64_t v = 0; v < 1000; ++v) {
    (v % 2 ? a : b).Record(v * 7);
    direct.Record(v * 7);
  }
  Histogram merged;
  merged.Merge(a);
  merged.Merge(b);
  Histogram::Snapshot got = merged.TakeSnapshot();
  Histogram::Snapshot want = direct.TakeSnapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.p50, want.p50);
  EXPECT_EQ(got.p90, want.p90);
  EXPECT_EQ(got.p99, want.p99);
}

TEST(HistogramTest, ConcurrentRecordCountsExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + i % 100);
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_EQ(s.max, 7099u);
}

TEST(MetricsRegistryTest, LookupReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("x.count");
  Counter* c2 = reg.GetCounter("x.count");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(reg.GetCounter("y.count"), c1);
  // Distinct kinds live in distinct namespaces even under one name.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("x.count")),
            static_cast<void*>(c1));
}

TEST(MetricsRegistryTest, EightThreadHammer) {
  // Concurrent lookups of overlapping names plus updates through the
  // returned pointers: the registry mutex only guards the map, updates are
  // lock-free. TSan verifies the claim; the totals verify exactness.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string name = "shared." + std::to_string(i % 4);
        reg.GetCounter(name)->Add(1);
        reg.GetHistogram("lat." + std::to_string(t % 2))
            ->Record(static_cast<uint64_t>(i));
        reg.GetGauge("depth")->Add(1);
        reg.GetGauge("depth")->Sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    total += reg.GetCounter("shared." + std::to_string(i))->value();
  }
  EXPECT_EQ(total, uint64_t{kThreads} * kIters);
  EXPECT_EQ(reg.GetHistogram("lat.0")->count() +
                reg.GetHistogram("lat.1")->count(),
            uint64_t{kThreads} * kIters);
  EXPECT_EQ(reg.GetGauge("depth")->value(), 0);
}

TEST(MetricsRegistryTest, ToJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("a.reads")->Add(3);
  reg.GetGauge("b.depth")->Set(-2);
  reg.GetHistogram("c.lat")->Record(5);
  std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.reads\":3"), std::string::npos);
  EXPECT_NE(json.find("\"b.depth\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, GlobalSumsEveryPoolAndVolume) {
  // The registry's pool and disk counters sum the instances' own counts:
  // its delta is the per-instance deltas' sum, through ResetStats /
  // ResetCounters and the destruction of one pool and volume, and it never
  // decreases.
  const char* kNames[] = {"disk.reads", "disk.writes", "pool.hits",
                          "pool.misses"};
  auto registry = [&] {
    std::vector<uint64_t> v;
    for (const char* n : kNames) {
      v.push_back(MetricsRegistry::Global().GetCounter(n)->value());
    }
    return v;
  };
  struct Volume {
    DiskManager disk;
    BufferPool pool{&disk, 4};
    std::vector<uint64_t> counts() const {
      IoCounters io = disk.counters();
      return {io.reads, io.writes, pool.hits(), pool.misses()};
    }
  };
  // Writes 6 pages, re-reads them from disk, then hits each once.
  auto work = [](Volume* v) {
    std::vector<PageId> pids;
    for (int i = 0; i < 6; ++i) {
      PageGuard g;
      ASSERT_TRUE(v->pool.NewPage(&g).ok());
      pids.push_back(g.page_id());
    }
    ASSERT_TRUE(v->pool.FlushAll().ok());
    v->pool.InvalidateAllClean();
    for (PageId pid : pids) {
      PageGuard g;
      ASSERT_TRUE(v->pool.FetchPage(pid, &g).ok());
      ASSERT_TRUE(v->pool.FetchPage(pid, &g).ok());
    }
  };

  const std::vector<uint64_t> base = registry();
  std::vector<uint64_t> last = base;
  // Expects registry - base == `folded` + the live volumes' counts.
  auto check = [&](const std::vector<uint64_t>& folded,
                   std::initializer_list<const Volume*> live) {
    std::vector<uint64_t> now = registry();
    for (size_t i = 0; i < now.size(); ++i) {
      uint64_t want = folded[i];
      for (const Volume* v : live) want += v->counts()[i];
      EXPECT_EQ(now[i] - base[i], want) << kNames[i];
      EXPECT_GE(now[i], last[i]) << kNames[i];
    }
    last = now;
  };

  Volume a;
  auto b = std::make_unique<Volume>();
  std::vector<uint64_t> folded(4, 0);
  work(&a);
  work(b.get());
  work(b.get());
  EXPECT_GT(a.counts()[0], 0u);
  EXPECT_GT(a.counts()[1], 0u);
  EXPECT_GT(a.counts()[2], 0u);
  check(folded, {&a, b.get()});

  // Resetting a's stats moves its counts into the registry's own total.
  for (size_t i = 0; i < 4; ++i) folded[i] += a.counts()[i];
  a.pool.ResetStats();
  a.disk.ResetCounters();
  EXPECT_EQ(a.counts(), std::vector<uint64_t>(4, 0));
  check(folded, {&a, b.get()});
  work(&a);
  check(folded, {&a, b.get()});

  // So does destroying b.
  for (size_t i = 0; i < 4; ++i) folded[i] += b->counts()[i];
  b.reset();
  check(folded, {&a});
  work(&a);
  check(folded, {&a});
}

}  // namespace
}  // namespace objrep
