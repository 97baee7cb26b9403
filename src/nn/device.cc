#include "nn/device.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "exec/scheduler.h"
#include "tensor/ops.h"

namespace deeplens {
namespace nn {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kCpuScalar:
      return "cpu";
    case DeviceKind::kCpuVector:
      return "avx";
    case DeviceKind::kGpuSim:
      return "gpu";
  }
  return "?";
}

namespace {

class CpuScalarDevice : public Device {
 public:
  DeviceKind kind() const override { return DeviceKind::kCpuScalar; }

  void Matmul(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) override {
    ops::MatmulScalar(a, b, c, m, k, n);
  }
  void Relu(float* x, size_t n) override { ops::ReluScalarKernel(x, n); }
  void Add(const float* a, const float* b, float* out, size_t n) override {
    ops::AddScalarKernel(a, b, out, n);
  }
  void ScaleBias(const float* a, float scale, float bias, float* out,
                 size_t n) override {
    ops::ScaleBiasScalarKernel(a, scale, bias, out, n);
  }
  void PairwiseL2Squared(const float* a, size_t na, const float* b,
                         size_t nb, size_t dim, float* out) override {
    for (size_t i = 0; i < na; ++i) {
      for (size_t j = 0; j < nb; ++j) {
        out[i * nb + j] =
            ops::L2SquaredScalar(a + i * dim, b + j * dim, dim);
      }
    }
  }
  void ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                   size_t /*transfer_bytes*/) override {
    RunTasks(n, fn);
  }
};

class CpuVectorDevice : public Device {
 public:
  DeviceKind kind() const override { return DeviceKind::kCpuVector; }

  void Matmul(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) override {
    ops::MatmulVector(a, b, c, m, k, n);
  }
  void Relu(float* x, size_t n) override { ops::ReluVectorKernel(x, n); }
  void Add(const float* a, const float* b, float* out, size_t n) override {
    ops::AddVectorKernel(a, b, out, n);
  }
  void ScaleBias(const float* a, float scale, float bias, float* out,
                 size_t n) override {
    ops::ScaleBiasVectorKernel(a, scale, bias, out, n);
  }
  void PairwiseL2Squared(const float* a, size_t na, const float* b,
                         size_t nb, size_t dim, float* out) override {
    for (size_t i = 0; i < na; ++i) {
      for (size_t j = 0; j < nb; ++j) {
        out[i * nb + j] =
            ops::L2SquaredVector(a + i * dim, b + j * dim, dim);
      }
    }
  }
  void ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                   size_t /*transfer_bytes*/) override {
    RunTasks(n, fn);
  }
};

class GpuSimDevice : public Device {
 public:
  explicit GpuSimDevice(GpuSimOptions options) : options_(options) {}

  DeviceKind kind() const override { return DeviceKind::kGpuSim; }

  void set_options(const GpuSimOptions& options) { options_ = options; }

  // RAII scope around a kernel: measures the host time and books the
  // modeled device time (sleep already charged separately is part of the
  // host time; the modeled clock divides only the compute part).
  class KernelScope {
   public:
    KernelScope(GpuSimDevice* device, uint64_t charged_nanos)
        : device_(device), charged_nanos_(charged_nanos) {}
    ~KernelScope() {
      const uint64_t real = timer_.ElapsedNanos();
      const uint64_t compute =
          real > charged_nanos_ ? real - charged_nanos_ : 0;
      device_->real_kernel_nanos_ += real;
      device_->modeled_kernel_nanos_ +=
          charged_nanos_ + static_cast<uint64_t>(
                               static_cast<double>(compute) /
                               device_->options_.compute_speedup);
    }

   private:
    GpuSimDevice* device_;
    uint64_t charged_nanos_;
    Stopwatch timer_;
  };

  void Matmul(const float* a, const float* b, float* c, size_t m, size_t k,
              size_t n) override {
    KernelScope scope(this,
                      ChargeOverhead((m * k + k * n + m * n) * sizeof(float)));
    // Data-parallel over rows of A across the pool = "SM occupancy".
    ThreadPool::Global().ParallelFor(
        0, m,
        [&](size_t i) {
          float* crow = c + i * n;
          for (size_t j = 0; j < n; ++j) crow[j] = 0.0f;
          for (size_t p = 0; p < k; ++p) {
            const float av = a[i * k + p];
            const float* brow = b + p * n;
            for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        },
        /*grain=*/8);
  }
  void Relu(float* x, size_t n) override {
    KernelScope scope(this, ChargeOverhead(n * sizeof(float)));
    ops::ReluVectorKernel(x, n);
  }
  void Add(const float* a, const float* b, float* out, size_t n) override {
    KernelScope scope(this, ChargeOverhead(3 * n * sizeof(float)));
    ops::AddVectorKernel(a, b, out, n);
  }
  void ScaleBias(const float* a, float scale, float bias, float* out,
                 size_t n) override {
    KernelScope scope(this, ChargeOverhead(2 * n * sizeof(float)));
    ops::ScaleBiasVectorKernel(a, scale, bias, out, n);
  }
  void PairwiseL2Squared(const float* a, size_t na, const float* b,
                         size_t nb, size_t dim, float* out) override {
    KernelScope scope(
        this,
        ChargeOverhead((na * dim + nb * dim + na * nb) * sizeof(float)));
    ThreadPool::Global().ParallelFor(
        0, na,
        [&](size_t i) {
          for (size_t j = 0; j < nb; ++j) {
            out[i * nb + j] =
                ops::L2SquaredVector(a + i * dim, b + j * dim, dim);
          }
        },
        /*grain=*/4);
  }
  void ParallelMap(size_t n, const std::function<void(size_t)>& fn,
                   size_t transfer_bytes) override {
    KernelScope scope(this, ChargeOverhead(transfer_bytes));
    RunTasks(n, fn);
  }

  uint64_t simulated_overhead_nanos() const override {
    return total_overhead_nanos_.load();
  }

  uint64_t real_kernel_nanos() const override {
    return real_kernel_nanos_.load();
  }
  uint64_t modeled_kernel_nanos() const override {
    return modeled_kernel_nanos_.load();
  }
  void ResetKernelClocks() override {
    real_kernel_nanos_ = 0;
    modeled_kernel_nanos_ = 0;
  }

 private:
  // Models launch latency + PCIe copy by actually waiting: the wall-clock
  // cost must be visible to the benchmarks exactly as a real device stall
  // would be. Returns the nanoseconds charged.
  uint64_t ChargeOverhead(size_t transfer_bytes) {
    const uint64_t copy_nanos = static_cast<uint64_t>(
        static_cast<double>(transfer_bytes) /
        options_.transfer_bytes_per_sec * 1e9);
    const uint64_t total = options_.launch_overhead_nanos + copy_nanos;
    total_overhead_nanos_ += total;
    std::this_thread::sleep_for(std::chrono::nanoseconds(total));
    return total;
  }

  GpuSimOptions options_;
  std::atomic<uint64_t> total_overhead_nanos_{0};
  std::atomic<uint64_t> real_kernel_nanos_{0};
  std::atomic<uint64_t> modeled_kernel_nanos_{0};
};

CpuScalarDevice* ScalarInstance() {
  static CpuScalarDevice device;
  return &device;
}
CpuVectorDevice* VectorInstance() {
  static CpuVectorDevice device;
  return &device;
}
GpuSimDevice* GpuInstance() {
  static GpuSimDevice device{GpuSimOptions{}};
  return &device;
}

}  // namespace

Device* GetDevice(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kCpuScalar:
      return ScalarInstance();
    case DeviceKind::kCpuVector:
      return VectorInstance();
    case DeviceKind::kGpuSim:
      return GpuInstance();
  }
  return ScalarInstance();
}

void ConfigureGpuSim(const GpuSimOptions& options) {
  GpuInstance()->set_options(options);
}

}  // namespace nn
}  // namespace deeplens
