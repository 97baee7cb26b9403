#include "exec/pipeline.h"

#include <algorithm>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/scheduler.h"

namespace deeplens {

MorselPlan PlanMorsels(size_t n, const MorselOptions& options) {
  MorselPlan plan;
  ThreadPool& pool = ThreadPool::Global();
  size_t threads = options.num_threads == 0
                       ? pool.num_threads()
                       : std::min(options.num_threads, pool.num_threads());
  if (threads == 0) threads = 1;
  const size_t batch = std::max<size_t>(1, options.batch_size);
  if (options.morsel_size > 0) {
    plan.morsel_size = options.morsel_size;
  } else {
    // ~4 morsels per worker for load balancing, but no smaller than a
    // batch so the per-morsel overhead stays amortized.
    const size_t target_chunks = threads * 4;
    plan.morsel_size = std::max(batch, (n + target_chunks - 1) /
                                           std::max<size_t>(1, target_chunks));
  }
  plan.num_morsels =
      n == 0 ? 0 : (n + plan.morsel_size - 1) / plan.morsel_size;
  // Nested invocation from a pool worker degrades to serial rather than
  // risking a deadlock on nested waits.
  plan.parallel =
      threads > 1 && plan.num_morsels > 1 && !ThreadPool::InWorker();
  return plan;
}

size_t ResolveMorselWorkers(const MorselOptions& options) {
  ThreadPool& pool = ThreadPool::Global();
  size_t threads = options.num_threads == 0
                       ? pool.num_threads()
                       : std::min(options.num_threads, pool.num_threads());
  return threads == 0 ? 1 : threads;
}

MorselPlan PlanUnitTasks(size_t n, const MorselOptions& options) {
  MorselPlan plan;
  plan.morsel_size = 1;
  plan.num_morsels = n;
  plan.parallel = ResolveMorselWorkers(options) > 1 && n > 1 &&
                  !ThreadPool::InWorker();
  return plan;
}

Status DispatchMorsels(size_t n, const MorselPlan& plan,
                       const std::function<Status(size_t, size_t, size_t)>&
                           worker) {
  if (plan.num_morsels == 0) return Status::OK();
  std::vector<Status> morsel_status(plan.num_morsels);
  auto run_one = [&](size_t m) {
    const size_t lo = m * plan.morsel_size;
    const size_t hi = std::min(n, lo + plan.morsel_size);
    morsel_status[m] = worker(m, lo, hi);
  };
  if (plan.parallel) {
    // Through the fair-share scheduler, not straight into the pool FIFO:
    // concurrent queries' morsels interleave by tenant weight instead of
    // enqueue order, so a long scan cannot starve a short lookup. The
    // calling thread's SchedulingContext (installed by Session::Run)
    // tags the whole task set.
    MorselScheduler::Global().Run(plan.num_morsels, run_one,
                                  ScopedSchedulingContext::Current());
  } else {
    for (size_t m = 0; m < plan.num_morsels; ++m) run_one(m);
  }
  for (const Status& st : morsel_status) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

BatchPipeline& BatchPipeline::Filter(ExprPtr predicate) {
  Stage stage;
  stage.kind = Stage::Kind::kFilter;
  stage.predicate = CompiledPredicate(std::move(predicate));
  stages_.push_back(std::move(stage));
  return *this;
}

BatchPipeline& BatchPipeline::Map(
    std::function<Result<PatchTuple>(PatchTuple)> fn) {
  Stage stage;
  stage.kind = Stage::Kind::kMap;
  stage.map_fn = std::move(fn);
  stages_.push_back(std::move(stage));
  return *this;
}

Status BatchPipeline::RunStagesOnTuples(std::vector<PatchTuple>* working,
                                        size_t first_stage) const {
  std::vector<uint8_t> selection;
  for (size_t s = first_stage; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    switch (stage.kind) {
      case Stage::Kind::kFilter: {
        const size_t n = working->size();
        selection.resize(n);
        DL_RETURN_NOT_OK(stage.predicate.EvalTupleRows(working->data(), n,
                                                       selection.data()));
        size_t w = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!selection[i]) continue;
          if (w != i) (*working)[w] = std::move((*working)[i]);
          ++w;
        }
        working->resize(w);
        break;
      }
      case Stage::Kind::kMap: {
        for (PatchTuple& t : *working) {
          DL_ASSIGN_OR_RETURN(t, stage.map_fn(std::move(t)));
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<PatchCollection> BatchPipeline::RunOnPatches(
    const PatchCollection& rows, const MorselOptions& options,
    PipelineStats* stats) const {
  Stopwatch timer;
  const size_t n = rows.size();
  const MorselPlan plan = PlanMorsels(n, options);
  std::vector<PatchCollection> partials(plan.num_morsels);

  const bool leading_filter =
      !stages_.empty() && stages_[0].kind == Stage::Kind::kFilter;

  DL_RETURN_NOT_OK(DispatchMorsels(
      n, plan, [&](size_t m, size_t lo, size_t hi) -> Status {
        std::vector<PatchTuple> working;
        size_t first_stage = 0;
        if (leading_filter) {
          std::vector<uint8_t> selection(hi - lo);
          DL_RETURN_NOT_OK(stages_[0].predicate.EvalPatchRows(
              rows.data() + lo, hi - lo, selection.data()));
          for (size_t i = 0; i < hi - lo; ++i) {
            if (selection[i]) working.push_back(PatchTuple{rows[lo + i]});
          }
          first_stage = 1;
        } else {
          working.reserve(hi - lo);
          for (size_t i = lo; i < hi; ++i) {
            working.push_back(PatchTuple{rows[i]});
          }
        }
        DL_RETURN_NOT_OK(RunStagesOnTuples(&working, first_stage));
        PatchCollection& out = partials[m];
        out.reserve(working.size());
        for (PatchTuple& t : working) {
          if (t.size() != 1) {
            return Status::InvalidArgument(
                "RunOnPatches produced a multi-patch tuple");
          }
          out.push_back(std::move(t[0]));
        }
        return Status::OK();
      }));

  PatchCollection out;
  size_t total = 0;
  for (const auto& partial : partials) total += partial.size();
  out.reserve(total);
  for (auto& partial : partials) {
    for (Patch& p : partial) out.push_back(std::move(p));
  }
  if (stats != nullptr) {
    stats->input_rows = n;
    stats->output_rows = out.size();
    stats->morsels = plan.num_morsels;
    stats->millis = timer.ElapsedMillis();
  }
  return out;
}

Result<PatchCollection> ParallelSelect(const PatchCollection& rows,
                                       const ExprPtr& predicate,
                                       const MorselOptions& options,
                                       PipelineStats* stats) {
  BatchPipeline pipeline;
  if (predicate) pipeline.Filter(predicate);
  return pipeline.RunOnPatches(rows, options, stats);
}

}  // namespace deeplens
