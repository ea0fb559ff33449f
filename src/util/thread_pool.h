// Thread pool with a FIFO task queue and futures. It starts with a fixed
// number of workers and only grows on request (GrowTo).
//
// Four consumers: the execution engine's workers (the ConcurrentRunner
// submits one session closure per worker), the network server's request
// workers, the BufferPool's background prefetch workers (DESIGN.md §9),
// and the ShardedEngine's scatter-gather helpers (DESIGN.md §14). It lives
// in util — header-only, below every layer — so storage can own a pool
// without depending on exec.
//
// Each pool records its queue depth, queue wait and task run time under
// its own metric-name prefix ("<prefix>.queue_depth", ...), so the server's
// admission queue is never mixed with helper or prefetch traffic.
//
// Tasks may block on LockManager locks; they must not submit-and-wait on
// further tasks in the same pool (no work stealing, so that would deadlock
// once all workers wait). The sharded engine's fan-out avoids this by
// claim-or-run: its caller runs any task no worker has started yet.
#ifndef OBJREP_UTIL_THREAD_POOL_H_
#define OBJREP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/macros.h"

namespace objrep {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one), recording into the
  /// "<metric_prefix>.queue_depth", ".queue_wait_us" and ".task_run_us"
  /// registry metrics.
  ThreadPool(uint32_t num_threads, const std::string& metric_prefix)
      : depth_(MetricsRegistry::Global().GetGauge(metric_prefix +
                                                  ".queue_depth")),
        queue_wait_us_(MetricsRegistry::Global().GetHistogram(
            metric_prefix + ".queue_wait_us")),
        task_run_us_(MetricsRegistry::Global().GetHistogram(
            metric_prefix + ".task_run_us")) {
    OBJREP_CHECK(num_threads > 0);
    workers_.reserve(num_threads);
    for (uint32_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Equivalent to Shutdown(): drains the queue (already-submitted tasks
  /// still run), then joins all workers.
  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t size() const {
    std::lock_guard<std::mutex> sl(shutdown_mu_);
    return static_cast<uint32_t>(workers_.size());
  }

  /// Adds workers until the pool has at least `num_threads`. A pool never
  /// shrinks, and once shutting down it no longer grows.
  void GrowTo(uint32_t num_threads) {
    std::lock_guard<std::mutex> sl(shutdown_mu_);
    {
      std::lock_guard<std::mutex> l(mu_);
      if (stopping_) return;
    }
    while (workers_.size() < num_threads) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Graceful draining stop (DESIGN.md §13): stops accepting new tasks —
  /// concurrent TrySubmit calls return false from this point on, they are
  /// never silently dropped — runs every already-queued task to
  /// completion, and joins the workers. Idempotent; safe to call while
  /// other threads are still racing TrySubmit against it.
  void Shutdown() {
    // Serialized so a second caller blocks until the first finished
    // joining, rather than returning while workers are still live.
    std::lock_guard<std::mutex> sl(shutdown_mu_);
    {
      std::lock_guard<std::mutex> l(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  /// Enqueues `fn` unless the pool is shutting down, in which case it
  /// returns false and `fn` is not (and never will be) run — the caller
  /// must reject the work itself (e.g. respond SHUTTING_DOWN). On success
  /// `*out`, when non-null, receives the future for `fn`'s result.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  bool TrySubmit(Fn fn, std::future<R>* out = nullptr) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    // Queue-wait latency: enqueue-to-dequeue, recorded by the worker. The
    // clock read costs one steady_clock call per task — tasks here are
    // whole query sessions or vectored read batches, never per-page work.
    uint64_t enqueued_us = Trace::NowMicros();
    // The submitter's trace id crosses the pool boundary with the task,
    // so spans recorded by the worker stitch to the submitting request.
    uint64_t trace_id = CurrentTraceId();
    {
      std::lock_guard<std::mutex> l(mu_);
      if (stopping_) return false;
      queue_.emplace_back(
          QueuedTask{[task] { (*task)(); }, enqueued_us, trace_id});
      depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    cv_.notify_one();
    if (out != nullptr) *out = task->get_future();
    return true;
  }

  /// Enqueues `fn` and returns a future for its result. An exception
  /// thrown by `fn` is captured into the future (the library itself is
  /// exception-free on data paths; this covers test code). The pool must
  /// not be shutting down — callers racing against Shutdown() use
  /// TrySubmit and handle rejection.
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> Submit(Fn fn) {
    std::future<R> fut;
    OBJREP_CHECK(TrySubmit(std::move(fn), &fut));
    return fut;
  }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_us = 0;
    uint64_t trace_id = 0;  ///< submitter's request context, re-established
                            ///< around the task's run
  };

  void WorkerLoop() {
    for (;;) {
      QueuedTask task;
      {
        std::unique_lock<std::mutex> l(mu_);
        cv_.wait(l, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ with nothing left to run
        task = std::move(queue_.front());
        queue_.pop_front();
        depth_->Set(static_cast<int64_t>(queue_.size()));
      }
      uint64_t start_us = Trace::NowMicros();
      queue_wait_us_->Record(start_us - task.enqueued_us);
      {
        ScopedTraceId trace_scope(task.trace_id);
        task.fn();
      }
      task_run_us_->Record(Trace::NowMicros() - start_us);
    }
  }

  // Registry mirrors (DESIGN.md §11), shared by every pool with the same
  // prefix.
  Gauge* const depth_;
  Histogram* const queue_wait_us_;
  Histogram* const task_run_us_;
  // Serializes Shutdown and GrowTo callers; guards workers_.
  mutable std::mutex shutdown_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> queue_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace objrep

#endif  // OBJREP_UTIL_THREAD_POOL_H_
