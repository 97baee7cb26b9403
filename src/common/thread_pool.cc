#include "common/thread_pool.h"

#include <algorithm>

#include "common/env.h"

namespace deeplens {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t grain) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t max_chunks = (n + grain - 1) / grain;
  const size_t num_chunks = std::min(max_chunks, num_threads() * 4);
  // Inside a worker the loop runs serially: if every worker submitted and
  // waited here at once, no worker would be left to run the chunks.
  if (num_chunks <= 1 || InWorker()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futs;
  futs.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + c * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futs.push_back(Submit([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  for (auto& f : futs) f.wait();
}

ThreadPool& ThreadPool::Global() {
  // DEEPLENS_NUM_THREADS overrides the pool width (1 = fully serial
  // execution everywhere); the default keeps at least two workers so the
  // parallel paths stay exercised even on single-core machines. Zero,
  // negative, or garbage values fall back to the hardware default rather
  // than constructing a pool with no workers.
  static ThreadPool pool(static_cast<size_t>(PositiveIntFromEnv(
      "DEEPLENS_NUM_THREADS",
      std::max<uint64_t>(2, std::thread::hardware_concurrency()),
      /*max_value=*/4096)));
  return pool;
}

namespace {
thread_local bool t_in_pool_worker = false;
}  // namespace

bool ThreadPool::InWorker() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace deeplens
