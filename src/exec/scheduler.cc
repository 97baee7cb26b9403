#include "exec/scheduler.h"

#include <algorithm>
#include <condition_variable>

#include "common/thread_pool.h"

namespace deeplens {

namespace {
thread_local SchedulingContext t_context;  // anonymous, weight 1
}  // namespace

ScopedSchedulingContext::ScopedSchedulingContext(SchedulingContext ctx) {
  if (ctx.weight == 0) ctx.weight = 1;
  saved_ = t_context;
  t_context = std::move(ctx);
}

ScopedSchedulingContext::~ScopedSchedulingContext() { t_context = saved_; }

const SchedulingContext& ScopedSchedulingContext::Current() {
  return t_context;
}

// One concurrently-executing query's morsel list. Lives on Run()'s
// stack; reachable from drain tickets only through `active_` under the
// scheduler mutex, and removed before Run returns, so tickets can never
// see a dangling set.
struct MorselScheduler::TaskSet {
  const std::function<void(size_t)>* task = nullptr;
  size_t count = 0;
  size_t next = 0;  // next unclaimed task index
  size_t done = 0;  // completed tasks
  uint64_t stride = 0;
  uint64_t pass = 0;  // virtual time; lowest pass runs next
  uint64_t seq = 0;   // arrival order (tie-break)
  std::string tenant;
  std::condition_variable done_cv;
};

MorselScheduler& MorselScheduler::Global() {
  static MorselScheduler scheduler;
  return scheduler;
}

namespace {
// Pass advances by kStrideScale/weight per claimed task, so a weight-4
// tenant's pass grows 4x slower and it claims ~4x the task slots while
// competing. The scale keeps integer division meaningful for weights up
// to the env knob's cap (1000).
constexpr uint64_t kStrideScale = 1 << 20;
}  // namespace

void MorselScheduler::Run(size_t num_tasks,
                          const std::function<void(size_t)>& task,
                          const SchedulingContext& ctx) {
  if (num_tasks == 0) return;
  TaskSet set;
  set.task = &task;
  set.count = num_tasks;
  set.stride = kStrideScale / std::max<uint64_t>(1, ctx.weight);
  set.tenant = ctx.tenant;
  size_t tickets = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A newcomer starts at the minimum active pass: it competes from
    // "now" instead of replaying virtual time it never consumed (which
    // would let it monopolize workers) or starting infinitely behind.
    uint64_t min_pass = 0;
    bool any = false;
    for (const TaskSet* s : active_) {
      if (!any || s->pass < min_pass) min_pass = s->pass;
      any = true;
    }
    set.pass = min_pass;
    set.seq = seq_++;
    active_.push_back(&set);
    ++total_sets_;
    total_tasks_ += num_tasks;
    tasks_by_tenant_[set.tenant] += num_tasks;
    peak_active_ = std::max<uint64_t>(peak_active_, active_.size());
    tickets = std::min(num_tasks, ThreadPool::Global().num_threads());
  }
  // Drain tickets are interchangeable: each claims the globally fairest
  // runnable task, whichever set it belongs to. Tickets already running
  // for an earlier query will drain this set too, so extra tickets just
  // exit early; the submission only guarantees enough exist.
  for (size_t i = 0; i < tickets; ++i) {
    ThreadPool::Global().Submit([this] { DrainLoop(); });
  }
  // The caller drains its own set while it waits. Its thread would
  // otherwise sit idle, and a set whose caller can finish it alone never
  // waits on pool workers that are blocked on something the caller holds.
  std::unique_lock<std::mutex> lock(mu_);
  while (set.next < set.count) {
    const size_t index = set.next++;
    set.pass += set.stride;
    lock.unlock();
    task(index);
    lock.lock();
    ++set.done;
  }
  set.done_cv.wait(lock, [&] { return set.done == set.count; });
  active_.erase(std::find(active_.begin(), active_.end(), &set));
}

void MorselScheduler::DrainLoop() {
  for (;;) {
    TaskSet* best = nullptr;
    size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (TaskSet* s : active_) {
        if (s->next >= s->count) continue;  // fully claimed (may be running)
        if (best == nullptr || s->pass < best->pass ||
            (s->pass == best->pass && s->seq < best->seq)) {
          best = s;
        }
      }
      if (best == nullptr) return;  // nothing claimable: ticket retires
      index = best->next++;
      best->pass += best->stride;
    }
    (*best->task)(index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++best->done == best->count) best->done_cv.notify_all();
      // `best` may be destroyed as soon as this lock is released (Run
      // wakes, erases the set, returns) — not touched again below.
    }
  }
}

void RunTasks(size_t n, const std::function<void(size_t)>& fn) {
  if (n > 1 && ThreadPool::Global().num_threads() > 1 &&
      !ThreadPool::InWorker()) {
    MorselScheduler::Global().Run(n, fn, ScopedSchedulingContext::Current());
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

SchedulerStats MorselScheduler::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats stats;
  stats.task_sets = total_sets_;
  stats.tasks = total_tasks_;
  stats.active_sets = active_.size();
  stats.peak_active_sets = peak_active_;
  stats.tasks_by_tenant = tasks_by_tenant_;
  return stats;
}

}  // namespace deeplens
