#include "storage/columnar/async_loader.h"

#include "storage/columnar/format.h"

namespace deeplens {
namespace columnar {

AsyncChunkLoader::AsyncChunkLoader(
    std::shared_ptr<const ColumnarReader> reader,
    std::vector<size_t> chunk_indexes, ChunkReadOptions read_options,
    PrefetchOptions prefetch_options)
    : reader_(std::move(reader)),
      chunk_indexes_(std::move(chunk_indexes)),
      read_options_(std::move(read_options)) {
  depth_ = prefetch_options.depth == PrefetchOptions::kUseEnv
               ? PrefetchDepthFromEnv()
               : prefetch_options.depth;
  if (depth_ > kMaxPrefetchDepth) depth_ = kMaxPrefetchDepth;
  byte_budget_ = prefetch_options.byte_budget;
  stats_.depth = depth_;
  // A single chunk leaves nothing to overlap: load it on the consumer's
  // thread instead of starting (and joining) a worker for it.
  sync_ = depth_ == 0 || chunk_indexes_.size() <= 1;
  if (!sync_) worker_ = std::thread(&AsyncChunkLoader::WorkerLoop, this);
}

AsyncChunkLoader::~AsyncChunkLoader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  consumed_.notify_all();
  if (worker_.joinable()) worker_.join();
}

Result<PatchCollection> AsyncChunkLoader::LoadChunk(size_t position) {
  return reader_->ReadChunk(chunk_indexes_[position], read_options_);
}

void AsyncChunkLoader::WorkerLoop() {
  for (size_t pos = 0; pos < chunk_indexes_.size(); ++pos) {
    // Read + decode outside the lock: this is the overlap that makes
    // prefetch worth having.
    Result<PatchCollection> loaded = LoadChunk(pos);
    std::unique_lock<std::mutex> lock(mu_);
    if (!loaded.ok()) {
      worker_status_ = loaded.status();
      done_ = true;
      produced_.notify_all();
      return;
    }
    QueuedChunk chunk;
    chunk.rows = std::move(loaded).value();
    for (const Patch& p : chunk.rows) chunk.bytes += ApproxPatchBytes(p);

    const bool must_wait = [&] {
      return !cancelled_ && !queue_.empty() &&
             (queue_.size() >= depth_ ||
              queued_bytes_ + chunk.bytes > byte_budget_);
    }();
    if (must_wait) ++stats_.budget_waits;
    consumed_.wait(lock, [&] {
      return cancelled_ ||
             (queue_.size() < depth_ &&
              (queue_.empty() ||
               queued_bytes_ + chunk.bytes <= byte_budget_));
    });
    if (cancelled_) return;
    queued_bytes_ += chunk.bytes;
    if (queued_bytes_ > stats_.peak_queued_bytes) {
      stats_.peak_queued_bytes = queued_bytes_;
    }
    stats_.chunks_loaded += 1;
    stats_.rows_loaded += chunk.rows.size();
    stats_.bytes_decoded += chunk.bytes;
    queue_.push_back(std::move(chunk));
    produced_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  done_ = true;
  produced_.notify_all();
}

Result<std::optional<PatchCollection>> AsyncChunkLoader::Next() {
  if (sync_) {  // no worker, no queue
    if (sync_pos_ >= chunk_indexes_.size()) return std::optional<PatchCollection>{};
    DL_ASSIGN_OR_RETURN(PatchCollection rows, LoadChunk(sync_pos_));
    ++sync_pos_;
    std::lock_guard<std::mutex> lock(mu_);
    stats_.chunks_loaded += 1;
    stats_.rows_loaded += rows.size();
    for (const Patch& p : rows) stats_.bytes_decoded += ApproxPatchBytes(p);
    return std::optional<PatchCollection>(std::move(rows));
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.empty() && !done_) ++stats_.consumer_waits;
  produced_.wait(lock, [&] { return !queue_.empty() || done_; });
  if (queue_.empty()) {
    if (!worker_status_.ok()) {
      Status st = worker_status_;
      // A terminal error is sticky: later Next() calls keep reporting it.
      return st;
    }
    return std::optional<PatchCollection>{};
  }
  QueuedChunk chunk = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= chunk.bytes;
  lock.unlock();
  consumed_.notify_all();
  return std::optional<PatchCollection>(std::move(chunk.rows));
}

PrefetchStats AsyncChunkLoader::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace columnar
}  // namespace deeplens
