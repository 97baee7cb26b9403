#include "exec/aggregates.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "exec/radix.h"
#include "index/balltree.h"

namespace deeplens {

namespace {

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

// The hash-partition count, as log2, of a partition-wise merge of
// per-morsel partials: about two partitions per worker, at most 64. 0
// keeps the merge serial — one worker, a caller already on a pool worker,
// or too few entries to pay for the scatter.
template <typename Partial>
size_t MergePartitionBits(const std::vector<Partial>& partials,
                          const MorselOptions& options) {
  size_t entries = 0;
  for (const Partial& partial : partials) entries += partial.size();
  const size_t workers = ResolveMorselWorkers(options);
  if (workers <= 1 || ThreadPool::InWorker() ||
      entries < kPartitionedMergeMinEntries) {
    return 0;
  }
  size_t bits = 0;
  while ((size_t{1} << bits) < workers * 2 && bits < 6) ++bits;
  return bits;
}

// The key a partial's entry is partitioned on: a set's element, a map's
// key.
const std::string& EntryKey(const std::string& key) { return key; }
template <typename V>
const std::string& EntryKey(const std::pair<const std::string, V>& entry) {
  return entry.first;
}

// Partition-wise merge of per-morsel hash partials. Scatters every entry
// into one of 2^bits hash partitions (parallel over morsels; each key
// lands wholly in one partition), then calls merge(p, &buckets) once per
// partition (parallel over partitions, zero shared state). buckets[m][p]
// holds morsel m's entries of partition p in the partial's iteration
// order, so a merge that walks the morsels in index order folds each key
// in the serial merge's order.
template <typename Entry, typename Partial, typename MergeFn>
Status PartitionedMerge(const std::vector<Partial>& partials, size_t bits,
                        const MorselOptions& options, const MergeFn& merge) {
  const size_t num_parts = size_t{1} << bits;
  std::vector<std::vector<std::vector<Entry>>> buckets(partials.size());
  DL_RETURN_NOT_OK(DispatchMorsels(
      partials.size(), PlanUnitTasks(partials.size(), options),
      [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t m = lo; m < hi; ++m) {
          buckets[m].resize(num_parts);
          for (const auto& entry : partials[m]) {
            buckets[m][RadixPartitionOf(RadixHashKey(EntryKey(entry)), bits)]
                .emplace_back(entry);
          }
        }
        return Status::OK();
      }));
  return DispatchMorsels(num_parts, PlanUnitTasks(num_parts, options),
                         [&](size_t, size_t lo, size_t hi) -> Status {
                           for (size_t p = lo; p < hi; ++p) {
                             merge(p, &buckets);
                           }
                           return Status::OK();
                         });
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
  const size_t bits = MergePartitionBits(partials, options);
  if (bits == 0) {
    std::unordered_set<std::string> seen;
    for (Partial& partial : partials) {
      seen.merge(partial);
    }
    return static_cast<uint64_t>(seen.size());
  }
  // Partition-wise distinct union: every key lands in exactly one hash
  // partition, so per-partition set sizes sum to the global count.
  std::vector<uint64_t> part_counts(size_t{1} << bits, 0);
  DL_RETURN_NOT_OK(PartitionedMerge<std::string>(
      partials, bits, options, [&](size_t p, auto* buckets) {
        std::unordered_set<std::string> seen;
        for (auto& morsel : *buckets) {
          for (std::string& k : morsel[p]) seen.insert(std::move(k));
        }
        part_counts[p] = seen.size();
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
  std::map<std::string, uint64_t> groups;
  const size_t bits = MergePartitionBits(partials, options);
  if (bits == 0) {
    for (const Partial& partial : partials) {
      for (const auto& [group, count] : partial) groups[group] += count;
    }
    return groups;
  }
  std::vector<std::map<std::string, uint64_t>> part_groups(
      size_t{1} << bits);
  DL_RETURN_NOT_OK((PartitionedMerge<std::pair<std::string, uint64_t>>(
      partials, bits, options, [&](size_t p, auto* buckets) {
        for (auto& morsel : *buckets) {
          for (auto& [group, count] : morsel[p]) {
            part_groups[p][std::move(group)] += count;
          }
        }
      })));
  for (std::map<std::string, uint64_t>& part : part_groups) {
    groups.merge(part);
  }
  return groups;
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
