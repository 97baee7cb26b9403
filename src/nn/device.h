// Execution-device abstraction for compute kernels (paper §7.4.2).
//
// Three backends reproduce the paper's CPU / AVX / GPU comparison:
//  * kCpuScalar — single-threaded scalar kernels (the "CPU" bars).
//  * kCpuVector — single-threaded vectorized kernels (the "AVX" bars).
//    (Each kernel is single-threaded; a batch's items still run in
//    parallel through ParallelMap.)
//  * kGpuSim    — a *simulated* accelerator: kernels run vectorized and
//    data-parallel across a thread pool (high throughput), but every
//    launch pays a fixed kernel-launch latency plus a host↔device
//    transfer cost proportional to the bytes touched. This reproduces the
//    behaviour the paper reports: large batched ETL wins big on GPU,
//    small query-time workloads lose to the launch/transfer overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.h"

namespace deeplens {
namespace nn {

enum class DeviceKind : int { kCpuScalar = 0, kCpuVector = 1, kGpuSim = 2 };

const char* DeviceKindName(DeviceKind kind);

/// Cost parameters of the simulated GPU.
struct GpuSimOptions {
  /// Fixed per-kernel-launch latency (models driver + PCIe round trip).
  uint64_t launch_overhead_nanos = 60000;  // 60 µs
  /// Host↔device copy bandwidth in bytes/second (PCIe 3.0 x16-ish).
  double transfer_bytes_per_sec = 12e9;
  /// Modeled on-device compute speed relative to the host's vectorized
  /// path. Used for the *modeled-time* clock (below), since a software
  /// simulator cannot make wall-clock compute faster than the host.
  double compute_speedup = 6.0;
};

/// \brief A compute device. Stateless; obtain shared instances via
/// GetDevice(). All kernels block until complete.
class Device {
 public:
  virtual ~Device() = default;

  virtual DeviceKind kind() const = 0;
  const char* name() const { return DeviceKindName(kind()); }

  /// C(m×n) = A(m×k) · B(k×n), row-major. `bytes_touched` lets the GPU
  /// model charge transfer for operands it has not cached; pass 0 to let
  /// the device infer it from the shapes.
  virtual void Matmul(const float* a, const float* b, float* c, size_t m,
                      size_t k, size_t n) = 0;

  /// In-place ReLU.
  virtual void Relu(float* x, size_t n) = 0;

  /// out = a + b elementwise.
  virtual void Add(const float* a, const float* b, float* out,
                   size_t n) = 0;

  /// out = a * scale + bias elementwise.
  virtual void ScaleBias(const float* a, float scale, float bias,
                         float* out, size_t n) = 0;

  /// Full pairwise squared-L2 matrix: out[i*nb + j] = ||A_i - B_j||².
  /// This is the all-pairs matching kernel used by q1/q4 (paper §7.4.2).
  virtual void PairwiseL2Squared(const float* a, size_t na, const float* b,
                                 size_t nb, size_t dim, float* out) = 0;

  /// Runs fn(i) for i in [0, n) and returns when every call has. All
  /// backends fan the calls out over the morsel pool through RunTasks
  /// (exec/scheduler.h), under the caller's scheduling context, and
  /// degrade to a serial loop inside a pool worker. The GPU backend first
  /// charges one launch + `transfer_bytes` of copy cost; CPU backends
  /// charge nothing. fn(i) must write only item i's output, so the result
  /// does not depend on which thread ran which item.
  virtual void ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                           size_t transfer_bytes = 0) = 0;

  /// Total simulated overhead charged so far (0 for CPU backends).
  virtual uint64_t simulated_overhead_nanos() const { return 0; }

  // --- Modeled-time clock (GPU backend only) ---------------------------
  // A software simulator executes device kernels on the host, so wall
  // clock understates a real accelerator. The GPU backend therefore keeps
  // two counters per kernel: the *real* nanoseconds the host spent
  // (overhead sleep + compute), and the *modeled* nanoseconds a device
  // with `compute_speedup` would have spent (overhead + compute/speedup).
  // Benchmarks report modeled_time = wall - real + modeled.

  /// Host nanoseconds spent inside device kernels since the last reset.
  virtual uint64_t real_kernel_nanos() const { return 0; }
  /// Modeled device nanoseconds for those kernels.
  virtual uint64_t modeled_kernel_nanos() const { return 0; }
  /// Resets both kernel clocks.
  virtual void ResetKernelClocks() {}
};

/// Returns the shared instance for a backend. Never null.
Device* GetDevice(DeviceKind kind);

/// Reconfigures the simulated GPU (affects the shared instance; intended
/// for benchmarks/tests).
void ConfigureGpuSim(const GpuSimOptions& options);

}  // namespace nn
}  // namespace deeplens
