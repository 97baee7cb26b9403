// Fair-share morsel scheduler: the serving layer between the pool's
// clients — the morsel driver (exec/pipeline.h DispatchMorsels) and the
// RunTasks fan-out used by batched inference and frame encoding — and
// ThreadPool::Global().
//
// One query's DispatchMorsels used to hand its whole morsel list to the
// pool FIFO, so a long scan enqueued ahead of a short lookup starved it
// for the scan's full duration. Now every parallel dispatch enqueues a
// *task set* tagged with the calling session's tenant id and fair-share
// weight, and pool workers drain the globally fairest runnable task —
// weighted stride scheduling across all concurrently-active queries —
// so concurrent queries interleave morsel-by-morsel in proportion to
// their weights instead of queue order.
//
// Determinism is untouched: the scheduler only reorders *which* morsel
// runs when; each morsel still writes its own output slot and the
// driver's ordered merge reassembles results in morsel-index order, so
// concurrent execution stays byte-identical to serial.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace deeplens {

/// Identity + fair-share class a task set is scheduled under. Installed
/// on the calling thread by Session::Run (core/session.h) via
/// ScopedSchedulingContext; untagged callers (plain Query use, tests,
/// ETL) run as the anonymous tenant with weight 1.
struct SchedulingContext {
  std::string tenant;
  uint64_t weight = 1;
};

/// RAII thread tag: DispatchMorsels reads Current() at enqueue time, so
/// everything a query runs between construction and destruction is
/// scheduled under this context. Nests (restores the previous context).
class ScopedSchedulingContext {
 public:
  explicit ScopedSchedulingContext(SchedulingContext ctx);
  ~ScopedSchedulingContext();

  ScopedSchedulingContext(const ScopedSchedulingContext&) = delete;
  ScopedSchedulingContext& operator=(const ScopedSchedulingContext&) = delete;

  /// The calling thread's current context (anonymous default when none
  /// is installed).
  static const SchedulingContext& Current();

 private:
  SchedulingContext saved_;
};

/// Point-in-time scheduler counters (per-tenant tallies accumulate over
/// the process lifetime; `active_sets` is instantaneous).
struct SchedulerStats {
  uint64_t task_sets = 0;
  uint64_t tasks = 0;
  uint64_t active_sets = 0;
  /// Highest number of task sets ever runnable at once — >1 proves
  /// concurrent queries actually interleaved.
  uint64_t peak_active_sets = 0;
  std::map<std::string, uint64_t> tasks_by_tenant;
};

/// \brief Weighted-fair scheduler over ThreadPool::Global().
///
/// Run() enqueues `num_tasks` independent tasks as one set and blocks
/// until all complete. Execution: up to pool-width drain tickets are
/// submitted to the pool; each ticket repeatedly claims the task from
/// the *lowest-pass* active set (stride scheduling: a set's pass
/// advances by kStrideScale/weight per claimed task), runs it, and
/// exits when nothing is claimable. Tickets are interchangeable across
/// sets — a ticket submitted for one query happily drains another's
/// tasks — which is what makes the scheduler work-conserving. The
/// calling thread claims tasks of its own set too (advancing its pass
/// like a ticket would), so every set can finish even when all pool
/// workers are busy or blocked.
///
/// Tasks must not block on other tasks (the morsel contract already
/// forbids it: nested dispatch degrades to serial via
/// ThreadPool::InWorker). Errors are the caller's concern: tasks are
/// void, and DispatchMorsels keeps its per-morsel Status slots.
class MorselScheduler {
 public:
  /// Process-wide instance, shared by every Database / session — the
  /// fair-share pool IS the process's execution capacity.
  static MorselScheduler& Global();

  /// Runs task(0..num_tasks-1) to completion under the given context.
  /// The calling thread runs unclaimed tasks of this set alongside the
  /// pool workers, then blocks until the last running task returns.
  void Run(size_t num_tasks, const std::function<void(size_t)>& task,
           const SchedulingContext& ctx);

  SchedulerStats Stats() const;

 private:
  MorselScheduler() = default;

  struct TaskSet;
  void DrainLoop();

  mutable std::mutex mu_;
  std::vector<TaskSet*> active_;
  uint64_t seq_ = 0;  // arrival order, for deterministic tie-breaks
  uint64_t total_sets_ = 0;
  uint64_t total_tasks_ = 0;
  uint64_t peak_active_ = 0;
  std::map<std::string, uint64_t> tasks_by_tenant_;
};

/// Fans fn(0..n-1) out over the morsel pool, with the calling thread
/// taking part, and returns when all calls have. The calls go through
/// MorselScheduler::Global() under the calling thread's
/// SchedulingContext, so batched inference and frame encoding share the
/// pool fairly with concurrent queries. Runs a serial loop instead when
/// n <= 1, the pool has a single worker, or the caller is itself a pool
/// worker (nested fan-out degrades to serial). Each call must write only
/// its own output slot; which thread runs it is the only thing that
/// varies, so results match the serial loop byte for byte.
void RunTasks(size_t n, const std::function<void(size_t)>& fn);

}  // namespace deeplens
