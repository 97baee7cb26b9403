// Fixed-size worker pool used by the vectorized / GPU-simulated execution
// backends and by parallel ETL.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace deeplens {

/// \brief Simple FIFO thread pool. Tasks are std::function<void()>; use
/// Submit() for fire-and-forget or ParallelFor() for blocking data-parallel
/// loops.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Returns a future completed when the task finishes.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for i in [begin, end), split into roughly equal chunks
  /// across the pool, and blocks until all complete. Grain controls the
  /// minimum chunk size. Called from a pool worker, it runs the loop
  /// serially on that worker (see InWorker).
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn, size_t grain = 1);

  /// Process-wide shared pool sized to the hardware concurrency (minimum
  /// 2 workers); the DEEPLENS_NUM_THREADS environment variable overrides
  /// the width, with 1 forcing serial execution everywhere.
  static ThreadPool& Global();

  /// True when the calling thread is a pool worker (of any pool). Blocking
  /// parallel constructs use this to degrade to serial execution instead of
  /// risking a deadlock on nested waits.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace deeplens
