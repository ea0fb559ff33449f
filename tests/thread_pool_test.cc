// Unit tests for the execution engine's thread pool: task execution,
// futures, parallelism, growth, FIFO draining on shutdown, per-pool
// metrics.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "obs/metrics.h"

namespace objrep {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4, "test_pool");
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SizeReportsWorkerCount) {
  ThreadPool pool(3, "test_pool");
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, GrowToAddsWorkersAndNeverShrinks) {
  ThreadPool pool(1, "test_pool");
  pool.GrowTo(3);
  EXPECT_EQ(pool.size(), 3u);
  pool.GrowTo(2);
  EXPECT_EQ(pool.size(), 3u);
  // Three tasks that each wait for all three to have started finish only
  // if the added workers run them alongside the first.
  std::atomic<int> started{0};
  auto rendezvous = [&started] {
    started.fetch_add(1);
    while (started.load() < 3) std::this_thread::yield();
    return true;
  };
  std::vector<std::future<bool>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(pool.Submit(rendezvous));
  for (auto& f : futures) EXPECT_TRUE(f.get());
  pool.Shutdown();
  pool.GrowTo(5);
  EXPECT_EQ(pool.size(), 3u) << "a pool that is shutting down must not grow";
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other to have started can only both
  // finish if two workers run them simultaneously.
  ThreadPool pool(2, "test_pool");
  std::atomic<int> started{0};
  auto rendezvous = [&started] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    return true;
  };
  auto f1 = pool.Submit(rendezvous);
  auto f2 = pool.Submit(rendezvous);
  EXPECT_TRUE(f1.get());
  EXPECT_TRUE(f2.get());
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<uint32_t> ran{0};
  {
    ThreadPool pool(1, "test_pool");
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 50u);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1, "test_pool");
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ManyProducersOnePool) {
  ThreadPool pool(4, "test_pool");
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> producers;
  std::vector<std::future<void>> futures[4];
  std::mutex mu;
  std::vector<std::future<void>> all;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 100; ++i) {
        auto f = pool.Submit([&sum, p, i] {
          sum.fetch_add(static_cast<uint64_t>(p * 1000 + i));
        });
        std::lock_guard<std::mutex> l(mu);
        all.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : all) f.get();
  uint64_t expect = 0;
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 100; ++i) expect += static_cast<uint64_t>(p * 1000 + i);
  }
  EXPECT_EQ(sum.load(), expect);
}

// Regression (DESIGN.md §13): a draining stop racing live submitters must
// either run a task to completion or reject it at submit time — never
// accept it and then abandon it. Before TrySubmit/Shutdown existed, a
// submit that raced the destructor could enqueue work no worker would
// ever run (its future never became ready), which as a server means a
// client waiting forever on a response that was silently dropped.
TEST(ThreadPoolTest, ShutdownUnderLoadRunsEveryAcceptedTask) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(2, "test_pool");
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> ran{0};
    std::atomic<bool> stop_submitting{false};
    std::vector<std::thread> submitters;
    for (int p = 0; p < 3; ++p) {
      submitters.emplace_back([&] {
        while (!stop_submitting.load()) {
          if (pool->TrySubmit([&ran] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          } else {
            // Pool is draining: rejection is the only acceptable
            // alternative to execution.
            break;
          }
        }
      });
    }
    // Let the submitters build a backlog, then drain while they race.
    while (accepted.load() < 100) std::this_thread::yield();
    pool->Shutdown();
    stop_submitting.store(true);
    for (auto& t : submitters) t.join();
    // Shutdown completed the drain and the submitters have recorded
    // every acceptance: the counts must agree exactly — nothing accepted
    // was abandoned, nothing rejected was run.
    EXPECT_EQ(ran.load(), accepted.load());
    // Post-drain submits are cleanly rejected, not dropped.
    EXPECT_FALSE(pool->TrySubmit([] {}));
    pool.reset();
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(ThreadPoolTest, ConcurrentShutdownCallsAreSafe) {
  ThreadPool pool(2, "test_pool");
  std::atomic<uint64_t> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // All callers must block until the drain truly finished — a second
  // caller returning while workers are still live would let its owner
  // destroy state the workers still touch.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& t : stoppers) t.join();
  EXPECT_EQ(ran.load(), 200u);
}

TEST(ThreadPoolTest, TrySubmitReturnsFutureForResult) {
  ThreadPool pool(1, "test_pool");
  std::future<int> fut;
  ASSERT_TRUE(pool.TrySubmit([] { return 41 + 1; }, &fut));
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, PoolsWithDifferentPrefixesRecordDisjointMetrics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* a_wait = reg.GetHistogram("test_pool_a.queue_wait_us");
  Histogram* a_run = reg.GetHistogram("test_pool_a.task_run_us");
  Histogram* b_wait = reg.GetHistogram("test_pool_b.queue_wait_us");
  Histogram* b_run = reg.GetHistogram("test_pool_b.task_run_us");
  Gauge* a_depth = reg.GetGauge("test_pool_a.queue_depth");
  Gauge* b_depth = reg.GetGauge("test_pool_b.queue_depth");
  ASSERT_NE(a_wait, b_wait);
  ASSERT_NE(a_depth, b_depth);
  const uint64_t a_wait0 = a_wait->count(), a_run0 = a_run->count();
  const uint64_t b_wait0 = b_wait->count(), b_run0 = b_run->count();

  // Pool b's only worker blocks until released, so b's queue holds its
  // second task while pool a runs and drains three tasks.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  ThreadPool a(1, "test_pool_a");
  ThreadPool b(1, "test_pool_b");
  std::future<void> blocker = b.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  std::future<void> queued = b.Submit([] {});
  for (int i = 0; i < 3; ++i) a.Submit([] {}).get();
  a.Shutdown();  // joins a's worker: its last task_run sample is in

  EXPECT_EQ(a_wait->count() - a_wait0, 3u);
  EXPECT_EQ(a_run->count() - a_run0, 3u);
  EXPECT_EQ(a_depth->value(), 0);
  EXPECT_EQ(b_depth->value(), 1) << "a's dequeues must not overwrite b's depth";
  EXPECT_EQ(b_wait->count() - b_wait0, 1u);
  EXPECT_EQ(b_run->count() - b_run0, 0u);

  release.store(true);
  blocker.get();
  queued.get();
  b.Shutdown();
  EXPECT_EQ(b_wait->count() - b_wait0, 2u);
  EXPECT_EQ(b_run->count() - b_run0, 2u);
  EXPECT_EQ(b_depth->value(), 0);
  EXPECT_EQ(a_wait->count() - a_wait0, 3u);
  EXPECT_EQ(a_run->count() - a_run0, 3u);
}

}  // namespace
}  // namespace objrep
