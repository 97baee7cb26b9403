#include "exec/radix.h"

#include <algorithm>

#include "common/env.h"

namespace deeplens {

uint64_t RadixHashKey(const std::string& encoded) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : encoded) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t JoinPartitionOverride() {
  // Cap at 2^16: beyond that every partition of any realistic input is
  // empty and the dispatch overhead is pure waste.
  return PowerOfTwoFromEnv("DEEPLENS_JOIN_PARTITIONS", 0, uint64_t{1} << 16);
}

size_t ChooseJoinPartitions(size_t build_rows, size_t workers) {
  size_t parts = 1;
  const size_t target = std::max<size_t>(1, workers * 4);
  while (parts < target && parts < 1024) parts *= 2;
  // Shrink while the average build partition would be tiny: a partition
  // that holds a handful of rows costs more to dispatch than to probe.
  while (parts > 1 && build_rows / parts < 64) parts /= 2;
  return parts;
}

Status RadixPartitionByKey(const PatchCollection& rows,
                           const std::string& key,
                           const CompiledPredicate& row_filter,
                           size_t log2_parts, const MorselOptions& options,
                           RadixPartitions* out) {
  const size_t num_parts = size_t{1} << log2_parts;
  const size_t n = rows.size();
  const MorselPlan plan = PlanMorsels(n, options);

  // Classify morsel-parallel into per-morsel partition buckets...
  std::vector<std::vector<std::vector<RadixRow>>> morsel_parts(
      plan.num_morsels);
  DL_RETURN_NOT_OK(DispatchMorsels(
      n, plan, [&](size_t m, size_t lo, size_t hi) -> Status {
        std::vector<std::vector<RadixRow>>& local = morsel_parts[m];
        local.resize(num_parts);
        std::vector<uint8_t> pass;
        if (!row_filter.always_true()) {
          pass.resize(hi - lo);
          DL_RETURN_NOT_OK(
              row_filter.EvalPatchRows(&rows[lo], hi - lo, pass.data()));
        }
        for (size_t i = lo; i < hi; ++i) {
          if (!pass.empty() && pass[i - lo] == 0) continue;
          const MetaValue& k = rows[i].meta().Get(key);
          if (k.is_null()) continue;  // SQL equality: NULL never matches
          RadixRow r;
          r.row = static_cast<uint32_t>(i);
          r.key = k.ToIndexKey();
          r.hash = RadixHashKey(r.key);
          local[RadixPartitionOf(r.hash, log2_parts)].push_back(
              std::move(r));
        }
        return Status::OK();
      }));

  // ...then concatenate each partition across morsels in morsel order, so
  // every partition holds its rows in ascending source-row order. Each
  // partition is an independent unit, so this pass parallelizes too.
  out->parts.assign(num_parts, {});
  const MorselPlan merge_plan = PlanUnitTasks(num_parts, options);
  DL_RETURN_NOT_OK(DispatchMorsels(
      num_parts, merge_plan, [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t p = lo; p < hi; ++p) {
          size_t total = 0;
          for (const auto& local : morsel_parts) total += local[p].size();
          std::vector<RadixRow>& part = out->parts[p];
          part.reserve(total);
          for (auto& local : morsel_parts) {
            for (RadixRow& r : local[p]) part.push_back(std::move(r));
          }
        }
        return Status::OK();
      }));

  out->rows_kept = 0;
  out->max_partition = 0;
  for (const auto& part : out->parts) {
    out->rows_kept += part.size();
    out->max_partition = std::max(out->max_partition, part.size());
  }
  return Status::OK();
}

void LocalKeyTable::Build(const std::vector<RadixRow>& rows) {
  rows_ = &rows;
  size_t buckets = 1;
  while (buckets < rows.size()) buckets *= 2;
  mask_ = buckets - 1;
  heads_.assign(buckets, -1);
  next_.assign(rows.size(), -1);
  // Head-insertion reverses chain order, so insert in descending row
  // order: chains then read ascending, which is the order Lookup must
  // return (each probe row's matches right-ascending).
  for (size_t i = rows.size(); i-- > 0;) {
    const size_t b = static_cast<size_t>(rows[i].hash) & mask_;
    next_[i] = heads_[b];
    heads_[b] = static_cast<int32_t>(i);
  }
}

void LocalKeyTable::Lookup(uint64_t hash, const std::string& key,
                           std::vector<uint32_t>* out) const {
  if (rows_ == nullptr || rows_->empty()) return;
  const std::vector<RadixRow>& rows = *rows_;
  for (int32_t i = heads_[static_cast<size_t>(hash) & mask_]; i >= 0;
       i = next_[static_cast<size_t>(i)]) {
    const RadixRow& r = rows[static_cast<size_t>(i)];
    if (r.hash == hash && r.key == key) out->push_back(r.row);
  }
}

}  // namespace deeplens
