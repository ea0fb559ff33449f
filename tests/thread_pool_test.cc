// Unit tests for the execution engine's thread pool: task execution,
// futures, parallelism, FIFO draining on shutdown.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

namespace objrep {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPoolTest, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other to have started can only both
  // finish if two workers run them simultaneously.
  ThreadPool pool(2);
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
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 50u);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ManyProducersOnePool) {
  ThreadPool pool(4);
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
    auto pool = std::make_unique<ThreadPool>(2);
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
  ThreadPool pool(2);
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
  ThreadPool pool(1);
  std::future<int> fut;
  ASSERT_TRUE(pool.TrySubmit([] { return 41 + 1; }, &fut));
  EXPECT_EQ(fut.get(), 42);
}

}  // namespace
}  // namespace objrep
