#include "exec/aggregates.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "exec/radix.h"
#include "index/balltree.h"

namespace deeplens {

namespace {

// Folds `value` into `slot` under the chosen reduction.
void FoldNumeric(NumericAgg agg, double value, bool fresh, double* slot) {
  switch (agg) {
    case NumericAgg::kSum:
      *slot = fresh ? value : *slot + value;
      break;
    case NumericAgg::kMin:
      *slot = fresh ? value : std::min(*slot, value);
      break;
    case NumericAgg::kMax:
      *slot = fresh ? value : std::max(*slot, value);
      break;
  }
}

// Morsel-parallel scan driver for aggregation: evaluates `predicate`
// against [lo, hi) of the source rows in place and calls
// update(&partials[m], row_index) for every surviving row, in row order
// within each morsel. Partials are indexed by morsel, so callers combine
// them deterministically in morsel order. `update` stays a deduced
// template parameter so the per-row call inlines (it sits in the hottest
// aggregation loop).
template <typename Partial, typename UpdateFn>
Result<std::vector<Partial>> AggregateMorsels(const PatchCollection& rows,
                                              const ExprPtr& predicate,
                                              const MorselOptions& options,
                                              const UpdateFn& update) {
  const CompiledPredicate compiled(predicate);
  const MorselPlan plan = PlanMorsels(rows.size(), options);
  std::vector<Partial> partials(plan.num_morsels);
  DL_RETURN_NOT_OK(DispatchMorsels(
      rows.size(), plan, [&](size_t m, size_t lo, size_t hi) -> Status {
        Partial* partial = &partials[m];
        if (compiled.always_true()) {
          for (size_t i = lo; i < hi; ++i) update(partial, i);
          return Status::OK();
        }
        std::vector<uint8_t> selection(hi - lo);
        DL_RETURN_NOT_OK(compiled.EvalPatchRows(rows.data() + lo, hi - lo,
                                                selection.data()));
        for (size_t i = 0; i < hi - lo; ++i) {
          if (selection[i]) update(partial, lo + i);
        }
        return Status::OK();
      }));
  return partials;
}

// Below this many partial entries (summed across morsels) the single
// merge loop is faster than partitioning it; the gate keeps the tiny
// group-count cases (a handful of labels) on the serial merge.
constexpr size_t kPartitionedMergeMinEntries = 4096;

// Partition-wise parallel merge of per-morsel hash-table partials: group
// keys are scattered into hash partitions (each group lands wholly in one
// partition), then every partition folds its groups across morsels *in
// morsel order* — exactly the serial merge's fold order per group, so
// floating-point sums stay bit-identical. `fold(slot, fresh, value)`
// combines one partial value into the group's slot.
template <typename V, typename FoldFn>
Result<std::map<std::string, V>> MergeGroupPartials(
    const std::vector<std::unordered_map<std::string, V>>& partials,
    const MorselOptions& options, const FoldFn& fold) {
  size_t entries = 0;
  for (const auto& partial : partials) entries += partial.size();
  const size_t workers = ResolveMorselWorkers(options);
  if (workers <= 1 || ThreadPool::InWorker() ||
      entries < kPartitionedMergeMinEntries) {
    std::map<std::string, V> groups;
    for (const auto& partial : partials) {
      for (const auto& [group, value] : partial) {
        auto [iter, inserted] = groups.emplace(group, V{});
        fold(&iter->second, inserted, value);
      }
    }
    return groups;
  }

  size_t log2_parts = 0;
  while ((size_t{1} << log2_parts) < workers * 2 && log2_parts < 6) {
    ++log2_parts;
  }
  const size_t num_parts = size_t{1} << log2_parts;

  // Scatter each morsel's entries into per-partition buckets (parallel
  // over morsels)...
  std::vector<std::vector<std::vector<std::pair<std::string, V>>>> buckets(
      partials.size());
  DL_RETURN_NOT_OK(DispatchMorsels(
      partials.size(), PlanUnitTasks(partials.size(), options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t m = lo; m < hi; ++m) {
          buckets[m].resize(num_parts);
          for (const auto& [group, value] : partials[m]) {
            const size_t p =
                RadixPartitionOf(RadixHashKey(group), log2_parts);
            buckets[m][p].emplace_back(group, value);
          }
        }
        return Status::OK();
      }));

  // ...then fold each partition across morsels in morsel order (parallel
  // over partitions; zero shared state).
  std::vector<std::map<std::string, V>> part_groups(num_parts);
  DL_RETURN_NOT_OK(DispatchMorsels(
      num_parts, PlanUnitTasks(num_parts, options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t p = lo; p < hi; ++p) {
          std::map<std::string, V>& groups = part_groups[p];
          for (auto& morsel : buckets) {
            for (auto& [group, value] : morsel[p]) {
              auto [iter, inserted] = groups.emplace(std::move(group), V{});
              fold(&iter->second, inserted, value);
            }
          }
        }
        return Status::OK();
      }));

  std::map<std::string, V> groups;
  for (std::map<std::string, V>& part : part_groups) {
    groups.merge(part);
  }
  return groups;
}

}  // namespace

Result<uint64_t> ParallelCount(const PatchCollection& rows,
                               const ExprPtr& predicate,
                               const MorselOptions& options) {
  DL_ASSIGN_OR_RETURN(
      std::vector<uint64_t> partials,
      (AggregateMorsels<uint64_t>(
          rows, predicate, options,
          [](uint64_t* count, size_t) { ++*count; })));
  uint64_t total = 0;
  for (uint64_t c : partials) total += c;
  return total;
}

Result<uint64_t> ParallelCountDistinctKey(const PatchCollection& rows,
                                          const std::string& key,
                                          const ExprPtr& predicate,
                                          const MorselOptions& options) {
  using Partial = std::unordered_set<std::string>;
  DL_ASSIGN_OR_RETURN(
      std::vector<Partial> partials,
      (AggregateMorsels<Partial>(rows, predicate, options,
                                 [&](Partial* seen, size_t i) {
                                   seen->insert(
                                       rows[i].meta().Get(key).ToIndexKey());
                                 })));
  size_t entries = 0;
  for (const Partial& partial : partials) entries += partial.size();
  const size_t workers = ResolveMorselWorkers(options);
  if (workers <= 1 || ThreadPool::InWorker() ||
      entries < kPartitionedMergeMinEntries) {
    std::unordered_set<std::string> seen;
    for (Partial& partial : partials) {
      seen.merge(partial);
    }
    return static_cast<uint64_t>(seen.size());
  }
  // Partition-wise distinct union: every key lands in exactly one hash
  // partition, so per-partition set sizes sum to the global count.
  size_t log2_parts = 0;
  while ((size_t{1} << log2_parts) < workers * 2 && log2_parts < 6) {
    ++log2_parts;
  }
  const size_t num_parts = size_t{1} << log2_parts;
  std::vector<std::vector<std::vector<std::string>>> buckets(partials.size());
  DL_RETURN_NOT_OK(DispatchMorsels(
      partials.size(), PlanUnitTasks(partials.size(), options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t m = lo; m < hi; ++m) {
          buckets[m].resize(num_parts);
          for (const std::string& k : partials[m]) {
            buckets[m][RadixPartitionOf(RadixHashKey(k), log2_parts)]
                .push_back(k);
          }
        }
        return Status::OK();
      }));
  std::vector<uint64_t> part_counts(num_parts, 0);
  DL_RETURN_NOT_OK(DispatchMorsels(
      num_parts, PlanUnitTasks(num_parts, options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t p = lo; p < hi; ++p) {
          std::unordered_set<std::string> seen;
          for (auto& morsel : buckets) {
            for (std::string& k : morsel[p]) seen.insert(std::move(k));
          }
          part_counts[p] = seen.size();
        }
        return Status::OK();
      }));
  uint64_t total = 0;
  for (uint64_t c : part_counts) total += c;
  return total;
}

Result<std::map<std::string, uint64_t>> ParallelGroupByCount(
    const PatchCollection& rows, const std::string& key,
    const ExprPtr& predicate, const MorselOptions& options) {
  using Partial = std::unordered_map<std::string, uint64_t>;
  DL_ASSIGN_OR_RETURN(
      std::vector<Partial> partials,
      (AggregateMorsels<Partial>(
          rows, predicate, options, [&](Partial* groups, size_t i) {
            ++(*groups)[rows[i].meta().Get(key).ToDisplayString()];
          })));
  return MergeGroupPartials<uint64_t>(
      partials, options,
      [](uint64_t* slot, bool, uint64_t count) { *slot += count; });
}

Result<std::map<std::string, double>> ParallelGroupByNumeric(
    const PatchCollection& rows, const std::string& group_key,
    const std::string& value_key, NumericAgg agg, const ExprPtr& predicate,
    const MorselOptions& options) {
  using Partial = std::unordered_map<std::string, double>;
  DL_ASSIGN_OR_RETURN(
      std::vector<Partial> partials,
      (AggregateMorsels<Partial>(
          rows, predicate, options, [&](Partial* groups, size_t i) {
            const Patch& p = rows[i];
            auto num = p.meta().Get(value_key).AsNumeric();
            if (!num.ok()) return;  // non-numeric values don't aggregate
            auto [iter, inserted] = groups->emplace(
                p.meta().Get(group_key).ToDisplayString(), 0.0);
            FoldNumeric(agg, num.value(), inserted, &iter->second);
          })));
  return MergeGroupPartials<double>(
      partials, options, [agg](double* slot, bool fresh, double value) {
        FoldNumeric(agg, value, fresh, slot);
      });
}

Result<std::optional<Patch>> ParallelMinBy(const PatchCollection& rows,
                                           const std::string& order_key,
                                           const ExprPtr& predicate,
                                           const MorselOptions& options) {
  struct Partial {
    bool has = false;
    MetaValue key;
    size_t row = 0;
  };
  DL_ASSIGN_OR_RETURN(
      std::vector<Partial> partials,
      (AggregateMorsels<Partial>(
          rows, predicate, options, [&](Partial* best, size_t i) {
            const MetaValue& k = rows[i].meta().Get(order_key);
            // Strict less keeps the earliest row per morsel; rows are
            // visited in input order within a morsel.
            if (!best->has || k.Compare(best->key) < 0) {
              best->has = true;
              best->key = k;
              best->row = i;
            }
          })));
  const Partial* best = nullptr;
  for (const Partial& partial : partials) {
    // Morsels are combined in index order, so on ties the earlier
    // (lower-row) morsel wins — exactly the serial scan's answer.
    if (!partial.has) continue;
    if (best == nullptr || partial.key.Compare(best->key) < 0) {
      best = &partial;
    }
  }
  if (best == nullptr) return std::optional<Patch>();
  return std::optional<Patch>(rows[best->row]);
}

namespace {

// Union-find over cluster ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Result<DedupResult> SimilarityDedup(const PatchCollection& patches,
                                    const DedupOptions& options) {
  DedupResult result;
  if (patches.empty()) return result;

  size_t dim = 0;
  for (const Patch& p : patches) {
    if (!p.has_features()) {
      return Status::InvalidArgument(
          "SimilarityDedup requires featurized patches");
    }
    const size_t d = static_cast<size_t>(p.features().size());
    if (dim == 0) dim = d;
    if (d != dim) {
      return Status::InvalidArgument(
          "SimilarityDedup: inconsistent feature dimensionality");
    }
  }

  UnionFind uf(patches.size());
  if (options.strategy == DedupOptions::Strategy::kBallTree) {
    std::vector<float> points(patches.size() * dim);
    for (size_t i = 0; i < patches.size(); ++i) {
      const float* f = patches[i].features().data();
      std::copy(f, f + dim,
                points.begin() + static_cast<ptrdiff_t>(i * dim));
    }
    BallTree tree;
    DL_RETURN_NOT_OK(tree.Build(std::move(points), dim, {}));
    std::vector<RowId> matches;
    for (size_t i = 0; i < patches.size(); ++i) {
      matches.clear();
      tree.RangeSearch(patches[i].features().data(), options.max_distance,
                       &matches);
      for (RowId r : matches) {
        if (static_cast<size_t>(r) != i) uf.Union(i, static_cast<size_t>(r));
      }
    }
    result.pairs_examined = tree.distance_evals();
  } else {
    nn::Device* device =
        options.device != nullptr
            ? options.device
            : nn::GetDevice(nn::DeviceKind::kCpuVector);
    std::vector<float> pts(patches.size() * dim);
    for (size_t i = 0; i < patches.size(); ++i) {
      const float* f = patches[i].features().data();
      std::copy(f, f + dim, pts.begin() + static_cast<ptrdiff_t>(i * dim));
    }
    std::vector<float> d2(patches.size() * patches.size());
    device->PairwiseL2Squared(pts.data(), patches.size(), pts.data(),
                              patches.size(), dim, d2.data());
    const float t2 = options.max_distance * options.max_distance;
    for (size_t i = 0; i < patches.size(); ++i) {
      for (size_t j = i + 1; j < patches.size(); ++j) {
        if (d2[i * patches.size() + j] <= t2) uf.Union(i, j);
      }
    }
    result.pairs_examined = patches.size() * patches.size();
  }

  std::unordered_set<size_t> roots;
  result.cluster_of.resize(patches.size());
  for (size_t i = 0; i < patches.size(); ++i) {
    const size_t root = uf.Find(i);
    result.cluster_of[i] = static_cast<uint32_t>(root);
    if (roots.insert(root).second) {
      result.representatives.push_back(patches[i]);
    }
  }
  result.num_clusters = roots.size();
  return result;
}

std::vector<PatchTuple> SortByKey(std::vector<PatchTuple> tuples,
                                  const std::string& key) {
  std::stable_sort(tuples.begin(), tuples.end(),
                   [&key](const PatchTuple& a, const PatchTuple& b) {
                     if (a.empty() || b.empty()) return b.empty() < a.empty();
                     return a[0].meta().Get(key) < b[0].meta().Get(key);
                   });
  return tuples;
}

}  // namespace deeplens
