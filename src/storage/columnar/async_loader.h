// AsyncChunkLoader: decode-ahead pipeline between a ColumnarReader and
// its consumer (a planner scan or MaterializedView::Scan). A dedicated
// I/O worker preads + decodes chunks in order and parks them in a bounded
// queue, so the consumer's compute overlaps the next chunk's I/O and
// decompression. The queue is bounded two ways — chunk count
// (DEEPLENS_PREFETCH_DEPTH) *and* a decoded-byte budget charged via
// ApproxPatchBytes — so prefetch cannot balloon memory on wide
// pixel/feature columns no matter how small the depth knob looks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/patch.h"
#include "storage/columnar/columnar_file.h"

namespace deeplens {
namespace columnar {

struct PrefetchOptions {
  /// Max decoded chunks queued ahead of the consumer; kUseEnv reads
  /// DEEPLENS_PREFETCH_DEPTH. 0 = no worker thread, Next() decodes
  /// synchronously; a loader over at most one chunk is synchronous at any
  /// depth.
  static constexpr size_t kUseEnv = static_cast<size_t>(-1);
  size_t depth = kUseEnv;
  /// Decoded-byte budget for the queue. The worker stalls before pushing
  /// a chunk that would overshoot — unless the queue is empty, so one
  /// oversized chunk still makes progress instead of deadlocking.
  size_t byte_budget = 64ull << 20;
};

struct PrefetchStats {
  uint64_t chunks_loaded = 0;
  uint64_t rows_loaded = 0;
  uint64_t bytes_decoded = 0;     // ApproxPatchBytes over all rows
  uint64_t peak_queued_bytes = 0;
  uint64_t consumer_waits = 0;    // Next() blocked on an empty queue
  uint64_t budget_waits = 0;      // worker blocked on depth/byte budget
  size_t depth = 0;               // resolved knob value
};

/// \brief Streams the decoded chunks of `chunk_indexes` in order.
/// Single-consumer; the reader itself is shared and thread-safe. The
/// destructor cancels and joins the worker.
class AsyncChunkLoader {
 public:
  AsyncChunkLoader(std::shared_ptr<const ColumnarReader> reader,
                   std::vector<size_t> chunk_indexes,
                   ChunkReadOptions read_options,
                   PrefetchOptions prefetch_options = {});
  ~AsyncChunkLoader();

  AsyncChunkLoader(const AsyncChunkLoader&) = delete;
  AsyncChunkLoader& operator=(const AsyncChunkLoader&) = delete;

  /// Next decoded chunk's surviving rows (possibly empty when the row
  /// filter eliminated a zone-selected chunk), nullopt after the last
  /// chunk, or the first error the worker hit.
  Result<std::optional<PatchCollection>> Next();

  /// Snapshot of the running counters (safe to call concurrently).
  PrefetchStats stats() const;

 private:
  struct QueuedChunk {
    PatchCollection rows;
    size_t bytes = 0;
  };

  void WorkerLoop();
  Result<PatchCollection> LoadChunk(size_t position);

  const std::shared_ptr<const ColumnarReader> reader_;
  const std::vector<size_t> chunk_indexes_;
  const ChunkReadOptions read_options_;
  size_t depth_ = 0;
  size_t byte_budget_ = 0;

  // Synchronous mode (depth 0, or at most one chunk): Next() loads on the
  // caller's thread and no worker runs.
  bool sync_ = false;
  size_t sync_pos_ = 0;

  mutable std::mutex mu_;
  std::condition_variable produced_;
  std::condition_variable consumed_;
  std::deque<QueuedChunk> queue_;
  size_t queued_bytes_ = 0;
  bool done_ = false;       // worker exhausted the chunk list or errored
  bool cancelled_ = false;  // destructor asked the worker to stop
  Status worker_status_;
  PrefetchStats stats_;
  std::thread worker_;
};

}  // namespace columnar
}  // namespace deeplens
