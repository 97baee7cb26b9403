// Singleflight table for in-flight NN inference: the inference cache
// dedups *completed* work, this dedups work that is still running.
// Under multi-tenant serving, K concurrent queries touching the same
// (model, device, Patch::Fingerprint) used to all miss the cache (the
// first Put lands only after the first inference finishes) and run K
// inferences; now the first caller becomes the *leader* and runs the
// model, every concurrent duplicate *joins* the in-flight computation
// and blocks on its result, and late arrivals hit the cache as before —
// so a distinct piece of content costs exactly one inference no matter
// how many tenants ask at once.
//
// Keys are the inference-cache keys (model@device#fingerprint@variant,
// see InferenceCache::KeyFor), so what joins here is exactly what would
// have collided in the cache. Results are shared as
// shared_ptr<const InferenceValue>; a leader's error Status propagates
// to every joiner (all K queries fail identically, just as if each had
// run the failing inference itself).
//
// Deadlock-safety: joiners block on a shared_future while holding no
// locks, and the leader computes on its own thread without touching the
// pool, so a joined worker always unblocks once the leader's model call
// returns. Morsel workers may join; they never lead *and* wait on the
// same key. Lock order is table mutex, then a cache shard mutex (Do's
// Peek); the cache never calls back into the table.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cache/inference_cache.h"
#include "common/status.h"

namespace deeplens {

/// Counters for Explain() / the serving bench. `joined` is the dedup
/// hit count: inferences that did NOT run because an identical one was
/// already in flight.
struct InflightStats {
  uint64_t leaders = 0;
  uint64_t joined = 0;
  uint64_t failures = 0;  // leader computations that returned an error
};

class InflightTable {
 public:
  using Outcome = Result<std::shared_ptr<const InferenceValue>>;

  /// Returns the result of `compute` for `key`, running it at most once
  /// across all concurrent callers: the first becomes the leader and
  /// runs `compute` on its own thread; concurrent duplicates block until
  /// the leader finishes and share its value (or error). `compute` must
  /// publish to `cache` (when non-null) before it returns.
  ///
  /// A caller that finds no flight Peeks `cache` under the table lock
  /// before taking leadership. Callers probe the cache before calling
  /// Do, and a leader may Put and retire its flight in between; the
  /// value it published answers here instead of a second leader
  /// recomputing it. Such a probe hit counts as `joined`.
  Outcome Do(const std::string& key, const InferenceCache* cache,
             const std::function<Result<InferenceValue>()>& compute) {
    std::promise<Outcome> promise;
    std::shared_future<Outcome> joined_flight;
    std::shared_ptr<const InferenceValue> published;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        ++joined_;
        joined_flight = it->second;
      } else if (cache != nullptr && (published = cache->Peek(key))) {
        ++joined_;
      } else {
        ++leaders_;
        inflight_.emplace(key, promise.get_future().share());
      }
    }
    if (published != nullptr) return published;
    // Joiners wait outside the lock: the leader needs it to retire the
    // key before fulfilling the promise.
    if (joined_flight.valid()) return joined_flight.get();
    Outcome outcome = [&]() -> Outcome {
      auto computed = compute();
      if (!computed.ok()) return computed.status();
      return std::make_shared<const InferenceValue>(
          std::move(computed).value());
    }();
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      if (!outcome.ok()) ++failures_;
    }
    // After the erase, new callers find the published value (or, if the
    // cache refused it, start a fresh flight); everyone who joined this
    // one wakes here.
    promise.set_value(outcome);
    return outcome;
  }

  InflightStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return InflightStats{leaders_, joined_, failures_};
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<Outcome>> inflight_;
  uint64_t leaders_ = 0;
  uint64_t joined_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace deeplens
